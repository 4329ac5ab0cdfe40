//! **nope** — the baseline unrealizability prover the paper compares against
//! (Hu et al., CAV 2019).
//!
//! nope reduces unrealizability of a SyGuS problem over examples to
//! *unreachability* in a non-deterministic recursive program: every
//! nonterminal becomes a procedure, every production a non-deterministic
//! branch, and an assertion at the end of `main` fails exactly when the
//! chosen term satisfies the specification on all examples. The original
//! tool hands this program to SeaHorn, whose Horn back end is Spacer; this
//! reproduction verifies it with a bounded concrete exploration plus the
//! `chc` crate's Horn solver, the interval × congruence fixpoint nayHorn
//! runs (see [`verify`], and docs/ARCHITECTURE.md, "The approximate
//! provers", for the substitution).
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
    /// Kleene rounds of the Horn back end's fixpoint (0 when the bounded
    /// search already decided the verdict).
    pub abstract_iterations: usize,
    /// Peak size of the bounded search's term arena (distinct terms
    /// interned while exploring reachable vectors).
    pub arena_terms: usize,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

/// The nope solver: build the program, then verify reachability with the
/// [`ProgramVerifier`].
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
    /// fixpoint poll the stop hook once per round, and the final query per
    /// solver step; a stopped check answers [`NopeVerdict::Unknown`]
    /// unless it had already found a witness.
    pub fn check(&self, problem: &Problem, examples: &ExampleSet) -> (NopeVerdict, NopeStats) {
        let started = Instant::now();
        let grammar = problem.grammar();
        let program = Program::from_grammar(grammar, examples);
        let outcome = ProgramVerifier.check(grammar, &program, examples, problem.spec());
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

    #[test]
    fn the_bounded_search_drops_overflowing_runs() {
        // Start ::= x | M | (+ Start Start), M = i64::MAX, f(x) = x − 2.
        // Over ℤ every term is a·x + b·M with b ≥ 0, so on x = 0 no term
        // gives −2; only M + M wrapped modulo 2⁶⁴ would.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(i64::MAX), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(-2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("wide_plus", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0]);
        let (verdict, _) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unrealizable);
    }

    #[test]
    fn equality_refutes_through_disjoint_congruences() {
        // Start ::= (ite B Zero One), B ::= (= Even One),
        // Even ::= 0 | (+ Even Two): an even number never equals 1, so
        // Start is always 1 and f(x) = 0 is unrealizable. The interval
        // test alone leaves B unknown.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("Even", Sort::Int)
            .nonterminal("Zero", Sort::Int)
            .nonterminal("One", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "Zero", "One"])
            .production("B", Symbol::Equal, &["Even", "One"])
            .production("Even", Symbol::Num(0), &[])
            .production("Even", Symbol::Plus, &["Even", "Two"])
            .production("Zero", Symbol::Num(0), &[])
            .production("One", Symbol::Num(1), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(0), vec!["x".to_string()]);
        let problem = Problem::new("even_is_one", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0]);
        let (verdict, stats) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unrealizable);
        assert!(stats.abstract_iterations > 0);
    }
}
