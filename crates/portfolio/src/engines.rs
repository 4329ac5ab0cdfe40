//! Adapters giving both solvers a common "attack a bare SyGuS problem"
//! interface with cooperative cancellation.
//!
//! `nay` already is such an engine: its CEGIS loop generates its own
//! examples. `nope` is only a *checker* of example-restricted problems, so
//! [`NopeEngine`] wraps it in the same outer loop Algorithm 2 uses — grow a
//! deterministic random example set until the checker proves
//! unrealizability or gives up — which is exactly how the paper's
//! evaluation drives it.

use nay::{CegisOutcome, Nay};
use nope::{NopeSolver, NopeVerdict};
use runner::Cancel;
use sygus::rng::{random_example, EXAMPLE_SEED};
use sygus::{ExampleSet, Problem, Term};

/// The unified verdict vocabulary of the portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveVerdict {
    /// The SyGuS problem has no solution (either engine can prove this).
    Unrealizable,
    /// A verified solution term exists (only `nay` can prove this).
    Realizable,
    /// The engine exhausted its budget without a definitive answer.
    Unknown,
    /// The engine observed a tripped [`Cancel`] token and aborted.
    Cancelled,
}

impl SolveVerdict {
    /// Stable lower-case name used by the JSON report
    /// (`unrealizable`, `realizable`, `unknown`, `cancelled`).
    pub fn name(&self) -> &'static str {
        match self {
            SolveVerdict::Unrealizable => "unrealizable",
            SolveVerdict::Realizable => "realizable",
            SolveVerdict::Unknown => "unknown",
            SolveVerdict::Cancelled => "cancelled",
        }
    }

    /// `true` for the two verdicts that settle the problem and should trip
    /// the shared token in a race.
    pub fn is_definitive(&self) -> bool {
        matches!(self, SolveVerdict::Unrealizable | SolveVerdict::Realizable)
    }
}

/// What one engine produced on one problem (timing lives in the racer; the
/// adapters are pure with respect to the wall clock, like `bench`'s
/// evaluation functions).
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// Engine name (`nay` or `nope`).
    pub engine: &'static str,
    /// The engine's verdict.
    pub verdict: SolveVerdict,
    /// Solver iterations: CEGIS iterations for `nay`, cumulative abstract
    /// fixpoint iterations for `nope`.
    pub iterations: u64,
    /// The number of examples the engine ended with.
    pub examples_used: usize,
    /// Peak term-search witness-log nodes of the run: the largest
    /// `enumerative::SearchResult::nodes` of one search, over nay's CEGIS
    /// iterations or nope's rounds.
    pub arena_terms: usize,
    /// The verified solution term, when `verdict` is `Realizable`.
    pub solution: Option<Term>,
}

/// Runs the `nay` CEGIS engine under a cancellation token.
pub fn solve_nay(problem: &Problem, cancel: &Cancel, nay: &Nay) -> EngineOutcome {
    let (outcome, stats) = nay.run_cancellable(problem, cancel);
    let (verdict, solution) = match outcome {
        CegisOutcome::Unrealizable => (SolveVerdict::Unrealizable, None),
        CegisOutcome::Solution(term) => (SolveVerdict::Realizable, Some(term)),
        CegisOutcome::Unknown => (SolveVerdict::Unknown, None),
        CegisOutcome::Cancelled => (SolveVerdict::Cancelled, None),
    };
    EngineOutcome {
        engine: "nay",
        verdict,
        iterations: stats.cegis_iterations as u64,
        examples_used: stats.num_examples,
        arena_terms: stats.arena_terms,
        solution,
    }
}

/// The example-growing outer loop around the `nope` checker.
///
/// Each round checks the current example set; *realizable on these
/// examples* means the examples are not yet constraining enough, so a fresh
/// deterministic random example is added and the next round starts.
/// `nope` can never prove full realizability, so its definitive verdict is
/// only ever [`SolveVerdict::Unrealizable`].
#[derive(Clone, Debug)]
pub struct NopeEngine {
    max_rounds: usize,
}

impl Default for NopeEngine {
    fn default() -> Self {
        NopeEngine {
            // matches nay's default iteration budget
            max_rounds: 12,
        }
    }
}

impl NopeEngine {
    /// Creates an engine with the default budgets.
    pub fn new() -> Self {
        NopeEngine::default()
    }

    /// Sets the maximal number of example-growing rounds.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Runs the example-growing loop under a cancellation token.
    pub fn solve(&self, problem: &Problem, cancel: &Cancel) -> EngineOutcome {
        let solver = NopeSolver::new();
        let mut rng = EXAMPLE_SEED;
        let mut examples = ExampleSet::new();
        examples.push(random_example(problem, &mut rng));
        let mut iterations = 0u64;
        let mut arena_terms = 0usize;
        let mut verdict = SolveVerdict::Unknown;
        for _ in 0..self.max_rounds {
            if cancel.is_cancelled() {
                verdict = SolveVerdict::Cancelled;
                break;
            }
            let (round_verdict, stats) = solver.check_cancellable(problem, &examples, cancel);
            iterations += stats.abstract_iterations as u64;
            arena_terms = arena_terms.max(stats.arena_terms);
            match round_verdict {
                NopeVerdict::Unrealizable => {
                    verdict = SolveVerdict::Unrealizable;
                    break;
                }
                NopeVerdict::Cancelled => {
                    verdict = SolveVerdict::Cancelled;
                    break;
                }
                NopeVerdict::RealizableOnExamples(_) => {
                    // constrain harder: draw a fresh example (retrying a few
                    // times if the draw collides with an existing one)
                    let mut fresh = random_example(problem, &mut rng);
                    for _ in 0..8 {
                        if !examples.contains(&fresh) {
                            break;
                        }
                        fresh = random_example(problem, &mut rng);
                    }
                    if examples.contains(&fresh) {
                        // the input space is effectively exhausted; more
                        // examples cannot help
                        verdict = SolveVerdict::Unknown;
                        break;
                    }
                    examples.push(fresh);
                }
                NopeVerdict::Unknown => {
                    verdict = SolveVerdict::Unknown;
                    break;
                }
            }
        }
        EngineOutcome {
            engine: "nope",
            verdict,
            iterations,
            examples_used: examples.len(),
            arena_terms,
            solution: None,
        }
    }
}

/// Runs the `nope` example-growing engine under a cancellation token.
pub fn solve_nope(problem: &Problem, cancel: &Cancel, engine: &NopeEngine) -> EngineOutcome {
    engine.solve(problem, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_problems::{realizable_xplus2, section2_lia};

    #[test]
    fn nay_engine_proves_the_section2_problem() {
        let outcome = solve_nay(&section2_lia(), &Cancel::new(), &Nay::new());
        assert_eq!(outcome.verdict, SolveVerdict::Unrealizable);
        assert!(outcome.verdict.is_definitive());
        assert!(outcome.iterations >= 1);
    }

    #[test]
    fn nay_engine_finds_solutions() {
        let outcome = solve_nay(&realizable_xplus2(), &Cancel::new(), &Nay::new());
        assert_eq!(outcome.verdict, SolveVerdict::Realizable);
        assert!(outcome.solution.is_some());
    }

    #[test]
    fn nope_engine_proves_the_section2_problem() {
        let outcome = solve_nope(&section2_lia(), &Cancel::new(), &NopeEngine::new());
        assert_eq!(outcome.verdict, SolveVerdict::Unrealizable);
        assert!(outcome.examples_used >= 1);
    }

    #[test]
    fn nope_engine_cannot_prove_realizability() {
        let outcome = solve_nope(&realizable_xplus2(), &Cancel::new(), &NopeEngine::new());
        assert!(!outcome.verdict.is_definitive(), "{:?}", outcome.verdict);
    }

    #[test]
    fn both_engines_observe_a_pre_tripped_token() {
        let cancel = Cancel::new();
        cancel.cancel();
        let nay = solve_nay(&section2_lia(), &cancel, &Nay::new());
        assert_eq!(nay.verdict, SolveVerdict::Cancelled);
        assert_eq!(nay.iterations, 0, "observed within one CEGIS iteration");
        let nope = solve_nope(&section2_lia(), &cancel, &NopeEngine::new());
        assert_eq!(nope.verdict, SolveVerdict::Cancelled);
        assert_eq!(nope.iterations, 0, "observed before any fixpoint pass");
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(SolveVerdict::Unrealizable.name(), "unrealizable");
        assert_eq!(SolveVerdict::Realizable.name(), "realizable");
        assert_eq!(SolveVerdict::Unknown.name(), "unknown");
        assert_eq!(SolveVerdict::Cancelled.name(), "cancelled");
    }
}
