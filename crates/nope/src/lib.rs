//! **nope** — the baseline unrealizability prover the paper compares against
//! (Hu et al., CAV 2019).
//!
//! nope reduces unrealizability of a SyGuS problem over examples to
//! *unreachability* in a non-deterministic recursive program: every
//! nonterminal becomes a procedure, every production a non-deterministic
//! branch, and an assertion at the end of `main` fails exactly when the
//! chosen term satisfies the specification on all examples. That program
//! is the grammar read as a program, so this reproduction builds no copy
//! of it: a bounded concrete search for a good run ([`enumerative::search`],
//! the search nay's CEGIS loop synthesizes with) and the `chc` crate's Horn
//! solver (the interval × congruence fixpoint nayHorn runs) both work on the
//! grammar, see [`NopeSolver::check`]. The original tool hands the
//! program to SeaHorn, whose Horn back end is Spacer; docs/ARCHITECTURE.md,
//! "The approximate provers", has the substitution.
//!
//! Compared with the grammar-flow-analysis approach of the `nay` crate, the
//! reduction is indirect: its analysis rediscovers the information that
//! nay's equations express directly, which is the source of the slowdown
//! reported in §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    /// Number of witness-log nodes the bounded search recorded, one per
    /// vector kept ([`enumerative::SearchResult::nodes`]).
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
    /// bounded search ([`enumerative::search`]) looks for a good run (a
    /// witness term), and when it finds none, [`HornSolver::analyze`]'s
    /// fixpoint over the grammar and [`refutation_query`] try to prove that
    /// no run is good. The search's own exhaustion flag is not used: the
    /// fixpoint decides every run without a witness.
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
        let found = enumerative::search(grammar, examples, problem.spec());
        if let Some(term) = found.witness {
            return done(NopeVerdict::RealizableOnExamples(term), 0, found.nodes);
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
        done(verdict, iterations, found.nodes)
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
    use sygus::{Grammar, GrammarBuilder, Sort, Spec, Symbol};

    pub(crate) fn g1() -> Grammar {
        GrammarBuilder::new("Start")
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
            .unwrap()
    }

    pub(crate) fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    #[test]
    fn end_to_end_unrealizability() {
        let problem = Problem::new("g1", g1(), spec_2x_plus_2());
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
    fn a_witness_valid_only_modulo_2_64_is_not_realizable() {
        // Start ::= −(2⁶³ − 1) | x with f(x) + f(x) = 2 on x = 0: over ℤ
        // 2·(−2⁶³ + 1) ≠ 2, though the two agree modulo 2⁶⁴.
        let source = "(set-logic LIA)\n\
                      (synth-fun f ((x Int)) Int ((Start Int (-9223372036854775807 x))))\n\
                      (declare-var x Int)\n\
                      (constraint (= (+ (f x) (f x)) 2))\n\
                      (check-synth)";
        let problem = sygus::parser::parse_problem(source, "wrapped_double").unwrap();
        let examples = ExampleSet::for_single_var("x", [0]);
        let (verdict, _) = NopeSolver::new().check(&problem, &examples);
        assert!(
            !matches!(verdict, NopeVerdict::RealizableOnExamples(_)),
            "{verdict:?}"
        );
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

/// Tests of the verdicts [`NopeSolver::check`] reaches when it verifies
/// nope's reachability program: a good run found by the bounded search,
/// or else the fixpoint's refutation or `unknown`.
#[cfg(test)]
mod verify {
    mod tests {
        use crate::tests::{g1, spec_2x_plus_2};
        use crate::{NopeSolver, NopeStats, NopeVerdict};
        use logic::LinearExpr;
        use sygus::{ExampleSet, Grammar, GrammarBuilder, Output, Problem, Sort, Spec, Symbol};

        /// [`NopeSolver::check`] on `(grammar, spec)`.
        fn check(
            grammar: &Grammar,
            examples: &ExampleSet,
            spec: &Spec,
        ) -> (NopeVerdict, NopeStats) {
            let problem = Problem::new("test", grammar.clone(), spec.clone());
            NopeSolver::new().check(&problem, examples)
        }

        #[test]
        fn unreachability_proves_unrealizability() {
            let examples = ExampleSet::for_single_var("x", [1]);
            let (verdict, _) = check(&g1(), &examples, &spec_2x_plus_2());
            assert_eq!(verdict, NopeVerdict::Unrealizable);
        }

        #[test]
        fn bounded_search_finds_good_runs() {
            // With x = 2 the output 6 is producible (3·2), so the bad location is
            // reachable and the verifier reports the witness.
            let examples = ExampleSet::for_single_var("x", [2]);
            match check(&g1(), &examples, &spec_2x_plus_2()).0 {
                NopeVerdict::RealizableOnExamples(witness) => {
                    assert_eq!(witness.eval_on(&examples).unwrap(), Output::Int(vec![6]))
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        #[test]
        fn bounded_search_reconstructs_a_derivable_witness_term() {
            // The lazy witnesses threaded through the exploration must denote a
            // real grammar term whose outputs are the good vector.
            let grammar = g1();
            let examples = ExampleSet::for_single_var("x", [2]);
            let (verdict, stats) = check(&grammar, &examples, &spec_2x_plus_2());
            let NopeVerdict::RealizableOnExamples(term) = verdict else {
                panic!("x = 2 has the good run 3·2 = 6, got {verdict:?}");
            };
            assert!(
                grammar.contains_term(&term),
                "witness {term} must be in L(G)"
            );
            assert_eq!(term.eval_on(&examples).unwrap(), Output::Int(vec![6]));
            assert!(stats.arena_terms > 0);
        }

        #[test]
        fn ite_and_boolean_witnesses_are_derivable() {
            // A CLIA grammar exercising Ite/Less lazy witnesses end to end.
            let grammar = GrammarBuilder::new("Start")
                .nonterminal("Start", Sort::Int)
                .nonterminal("B", Sort::Bool)
                .production("Start", Symbol::Var("x".to_string()), &[])
                .production("Start", Symbol::Num(7), &[])
                .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
                .production("B", Symbol::LessThan, &["Start", "Start"])
                .build()
                .unwrap();
            let spec = Spec::output_equals(LinearExpr::constant(7), vec!["x".to_string()]);
            let examples = ExampleSet::for_single_var("x", [3]);
            let NopeVerdict::RealizableOnExamples(term) = check(&grammar, &examples, &spec).0
            else {
                panic!("the constant 7 is derivable");
            };
            assert!(grammar.contains_term(&term), "witness {term} not in L(G)");
            assert_eq!(term.eval_on(&examples).unwrap(), Output::Int(vec![7]));
        }

        #[test]
        fn coarse_abstraction_yields_unknown() {
            // The interval × congruence domain is strong on finite constant
            // sets, so take a recursive grammar whose language is
            // {1, 4, 7, …} ∪ {2, 5, 8, …}: the join breaks both components.
            let grammar = GrammarBuilder::new("Start")
                .nonterminal("Start", Sort::Int)
                .nonterminal("Three", Sort::Int)
                .production("Start", Symbol::Num(1), &[])
                .production("Start", Symbol::Num(2), &[])
                .production("Start", Symbol::Plus, &["Start", "Three"])
                .production("Three", Symbol::Num(3), &[])
                .build()
                .unwrap();
            // language: 1, 2, 4, 5, 7, 8, … (all n with n mod 3 ∈ {1, 2});
            // target 6 is unreachable but interval [1,∞) + congruence top cannot
            // prove it, and the bounded search cannot reach it either → Unknown.
            let spec = Spec::output_equals(LinearExpr::constant(6), vec!["x".to_string()]);
            let examples = ExampleSet::for_single_var("x", [0]);
            let (verdict, _) = check(&grammar, &examples, &spec);
            assert_eq!(verdict, NopeVerdict::Unknown);
        }

        #[test]
        fn a_capped_fixpoint_is_not_evidence() {
            // Start ::= (+ N1 Z) | 7 | (+ Start Z), Nᵢ ::= (+ Nᵢ₊₁ Z) for
            // i < 120, N120 ::= 5, Z ::= 0: realizable by 5 + 0 + … + 0, whose
            // value reaches Start in round 121. At the cap of 100 the iteration
            // still has Start = {7}, which would refute f = 5.
            let mut builder = GrammarBuilder::new("Start")
                .nonterminal("Start", Sort::Int)
                .nonterminal("Z", Sort::Int)
                .production("Start", Symbol::Plus, &["N1", "Z"])
                .production("Start", Symbol::Num(7), &[])
                .production("Start", Symbol::Plus, &["Start", "Z"])
                .production("Z", Symbol::Num(0), &[]);
            for i in 1..=120 {
                let (name, next) = (format!("N{i}"), format!("N{}", i + 1));
                builder = builder.nonterminal(&name, Sort::Int);
                builder = if i < 120 {
                    builder.production(&name, Symbol::Plus, &[&next, "Z"])
                } else {
                    builder.production(&name, Symbol::Num(5), &[])
                };
            }
            let grammar = builder.build().unwrap();
            let spec = Spec::output_equals(LinearExpr::constant(5), vec!["x".to_string()]);
            let examples = ExampleSet::for_single_var("x", [0]);
            let (verdict, stats) = check(&grammar, &examples, &spec);
            // the fixpoint ran to chc's cap of 100 rounds without converging
            assert_eq!(stats.abstract_iterations, 100);
            assert_eq!(verdict, NopeVerdict::Unknown);
        }
    }
}
