//! **nope** — the baseline unrealizability prover the paper compares against
//! (Hu et al., CAV 2019).
//!
//! nope reduces unrealizability of a SyGuS problem over examples to
//! *unreachability* in a non-deterministic recursive program: every
//! nonterminal becomes a procedure, every production a non-deterministic
//! branch, and an assertion at the end of `main` fails exactly when the
//! chosen term satisfies the specification on all examples. The original
//! tool hands this program to SeaHorn; this reproduction verifies it with a
//! bounded concrete exploration plus an abstract interpretation over the
//! interval × congruence domain (see DESIGN.md for the substitution).
//!
//! Compared with the grammar-flow-analysis approach of the `nay` crate, the
//! reduction is indirect: it produces a program whose analysis rediscovers
//! the information that nay's equations express directly, which is the
//! source of the slowdown reported in §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod program;
pub mod verify;

pub use program::{Procedure, ProgExpr, Program};
pub use verify::{CheckOutcome, NopeVerdict, ProgramVerifier};

use runner::Cancel;
use std::time::{Duration, Instant};
use sygus::{ExampleSet, Problem};

/// Statistics of a nope run, mirroring what the benchmark harness reports.
#[derive(Clone, Debug, Default)]
pub struct NopeStats {
    /// Number of procedures in the generated program.
    pub num_procedures: usize,
    /// Number of non-deterministic branches.
    pub num_branches: usize,
    /// Number of call sites (encoding size).
    pub num_call_sites: usize,
    /// Fixed-point iterations performed by the abstract interpreter
    /// (0 when the bounded search already decided the verdict).
    pub abstract_iterations: usize,
    /// Peak size of the bounded search's term arena (distinct terms
    /// interned while exploring reachable vectors).
    pub arena_terms: usize,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

/// The nope solver: build the program, then verify reachability with the
/// default [`ProgramVerifier`] budgets.
#[derive(Clone, Debug, Default)]
pub struct NopeSolver;

impl NopeSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        NopeSolver
    }

    /// Checks unrealizability of `problem` restricted to `examples`.
    ///
    /// Inside a [`logic::interruptible`] scope the bounded search and the
    /// abstract fixpoint poll the stop hook once per round, and the final
    /// query per solver step; a stopped check answers
    /// [`NopeVerdict::Unknown`] unless it had already found a witness.
    pub fn check(&self, problem: &Problem, examples: &ExampleSet) -> (NopeVerdict, NopeStats) {
        let started = Instant::now();
        let program = Program::from_grammar(problem.grammar(), examples);
        let outcome = ProgramVerifier::new().check_instrumented(&program, examples, problem.spec());
        let stats = NopeStats {
            num_procedures: program.procedures.len(),
            num_branches: program.num_branches(),
            num_call_sites: program.num_call_sites(),
            abstract_iterations: outcome.abstract_iterations,
            arena_terms: outcome.arena_terms,
            elapsed: started.elapsed(),
        };
        (outcome.verdict, stats)
    }

    /// [`NopeSolver::check`] under a cancellation token: the check is one
    /// [`logic::interruptible`] scope polling `cancel`, and a check that
    /// ends without a definitive verdict while the token is tripped
    /// returns [`NopeVerdict::Cancelled`].
    pub fn check_cancellable(
        &self,
        problem: &Problem,
        examples: &ExampleSet,
        cancel: &Cancel,
    ) -> (NopeVerdict, NopeStats) {
        let token = cancel.clone();
        match logic::interruptible(
            move || token.is_cancelled(),
            || self.check(problem, examples),
        ) {
            (NopeVerdict::Unknown, stats) if cancel.is_cancelled() => {
                (NopeVerdict::Cancelled, stats)
            }
            finished => finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{LinearExpr, Var};
    use sygus::{GrammarBuilder, Sort, Spec, Symbol};

    #[test]
    fn end_to_end_unrealizability() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("S1", Sort::Int)
            .nonterminal("S2", Sort::Int)
            .nonterminal("S3", Sort::Int)
            .production("Start", Symbol::Plus, &["S1", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("S1", Symbol::Plus, &["S2", "S3"])
            .production("S2", Symbol::Plus, &["S3", "S3"])
            .production("S3", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("g1", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [1]);
        let (verdict, stats) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unrealizable);
        assert_eq!(stats.num_procedures, 4);
        assert_eq!(stats.num_branches, 5);
        assert!(stats.num_call_sites > 0);
    }
}
