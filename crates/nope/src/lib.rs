//! **nope** — the baseline unrealizability prover the paper compares against
//! (Hu et al., CAV 2019).
//!
//! nope reduces unrealizability of a SyGuS problem over examples to
//! *unreachability* in a non-deterministic recursive program: every
//! nonterminal becomes a procedure, every production a non-deterministic
//! branch, and an assertion at the end of `main` fails exactly when the
//! chosen term satisfies the specification on all examples. That program
//! is the grammar read as a program, so this reproduction builds no copy
//! of it: a bounded concrete search for a good run and the `chc` crate's
//! Horn solver (the interval × congruence fixpoint nayHorn runs) both work
//! on the grammar, see [`NopeSolver::check`]. The original tool hands the
//! program to SeaHorn, whose Horn back end is Spacer; docs/ARCHITECTURE.md,
//! "The approximate provers", has the substitution.
//!
//! Compared with the grammar-flow-analysis approach of the `nay` crate, the
//! reduction is indirect: its analysis rediscovers the information that
//! nay's equations express directly, which is the source of the slowdown
//! reported in §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod verify;

use chc::{refutation_query, HornSolver};
use logic::{Solver, SolverResult};
use runner::Cancel;
use std::time::{Duration, Instant};
use sygus::{ExampleSet, Problem, Term};

/// The verdict of the nope-style reachability analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NopeVerdict {
    /// The bad location is unreachable: `sy_E` (and hence `sy`) is
    /// unrealizable.
    Unrealizable,
    /// A concrete run reaching the bad location was found: `sy_E` is
    /// realizable, and the term of `L(G)` that run derives satisfies the
    /// specification on every example.
    RealizableOnExamples(Term),
    /// Neither analysis was conclusive.
    Unknown,
    /// [`NopeSolver::check_cancellable`]'s token tripped before the check
    /// reached a definitive verdict (portfolio racing: the other engine
    /// answered first, or the deadline passed).
    Cancelled,
}

impl NopeVerdict {
    /// Stable lower-case name used by the benchmark report
    /// (`unrealizable`, `realizable`, `unknown`, `cancelled`).
    pub fn name(&self) -> &'static str {
        match self {
            NopeVerdict::Unrealizable => "unrealizable",
            NopeVerdict::RealizableOnExamples(_) => "realizable",
            NopeVerdict::Unknown => "unknown",
            NopeVerdict::Cancelled => "cancelled",
        }
    }
}

/// Statistics of a nope run, mirroring what the benchmark harness reports.
#[derive(Clone, Debug, Default)]
pub struct NopeStats {
    /// Kleene rounds of the Horn back end's fixpoint (0 when the bounded
    /// search already decided the verdict).
    pub abstract_iterations: usize,
    /// Number of witness-log nodes the bounded search recorded while
    /// exploring reachable vectors (its peak size: the log only grows, and
    /// terms are hash-consed into a term arena only when a witness is
    /// demanded).
    pub arena_terms: usize,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

/// The nope solver: a bounded search for a good run, then `chc`'s
/// refutation of every run.
#[derive(Clone, Debug, Default)]
pub struct NopeSolver;

impl NopeSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        NopeSolver
    }

    /// Checks unrealizability of `problem` restricted to `examples`: the
    /// bounded search looks for a good run (a witness term), and when it
    /// finds none, [`HornSolver::analyze`]'s fixpoint over the grammar and
    /// [`refutation_query`] try to prove that no run is good.
    ///
    /// Inside a [`logic::interruptible`] scope the bounded search and the
    /// fixpoint poll the stop hook once per round, and the final query per
    /// solver step; a stopped check answers [`NopeVerdict::Unknown`]
    /// unless it had already found a witness.
    pub fn check(&self, problem: &Problem, examples: &ExampleSet) -> (NopeVerdict, NopeStats) {
        let started = Instant::now();
        let done = |verdict, abstract_iterations, arena_terms| {
            let stats = NopeStats {
                abstract_iterations,
                arena_terms,
                elapsed: started.elapsed(),
            };
            (verdict, stats)
        };
        if examples.is_empty() {
            return done(NopeVerdict::Unknown, 0, 0);
        }
        // 1. bounded concrete exploration: can we reach the bad location?
        let grammar = problem.grammar();
        let (witness, arena_terms) = verify::bounded_search(grammar, examples, problem.spec());
        if let Some(term) = witness {
            return done(NopeVerdict::RealizableOnExamples(term), 0, arena_terms);
        }
        // 2. the Horn back end: is the bad location provably unreachable?
        let (values, iterations) = HornSolver::new().analyze(grammar, examples);
        let refuted = values.is_some_and(|values| {
            let query = refutation_query(&values[grammar.start()], examples, problem.spec());
            Solver::default().check(&query) == SolverResult::Unsat
        });
        let verdict = if refuted {
            NopeVerdict::Unrealizable
        } else {
            NopeVerdict::Unknown
        };
        done(verdict, iterations, arena_terms)
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
    use logic::{Formula, LinearExpr, Var};
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
        assert!(stats.abstract_iterations > 0);
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
    fn the_bounded_search_drops_overflowing_negations() {
        // Start ::= (- x), f(x) < 0 on x = i64::MIN: over ℤ the one term
        // gives 2⁶³ > 0, and only −(−2⁶³) wrapped to −2⁶³ would satisfy it.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::NegVar("x".to_string()), &[])
            .build()
            .unwrap();
        let negative = Formula::lt(LinearExpr::var(Spec::output_var()), 0);
        let spec = Spec::new(negative, vec!["x".to_string()], Sort::Int);
        let problem = Problem::new("neg_min", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [i64::MIN]);
        let (verdict, _) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unknown);
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
