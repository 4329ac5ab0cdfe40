//! Algorithm 1: `CheckUnrealizable(G, ψ, E)` (§4.3).
//!
//! The grammar is first rewritten into `Minus`-free form (`h(G)`, §5.2) and
//! trimmed; the GFA equations are then solved exactly — with the LIA
//! procedure of §5 or the CLIA procedure of §6 — and the symbolic
//! concretization of the start symbol's abstraction is conjoined with the
//! specification instantiated on the examples. The resulting QF-LIA formula
//! is handed to the `logic` solver:
//!
//! * unsatisfiable ⇒ the example-restricted problem `sy_E` is
//!   **unrealizable** (and so is `sy`, Lemma 3.5);
//! * satisfiable ⇒ `sy_E` is **realizable** (the abstraction is exact, so
//!   this direction holds too — Thm. 4.5(2));
//! * unknown ⇒ the check is inconclusive: the solver budget was exceeded,
//!   or the CLIA abstraction is not exact because SolveMutual stopped at its
//!   round cap or a `⟦<⟧♯`/`⟦=⟧♯` query came back unknown.
//!
//! The `Horn` mode replaces the exact solve with the approximate
//! abstract-interpretation Horn solver of the `chc` crate, which can only
//! return *unrealizable* or *unknown*.
//!
//! The check takes no cancellation token: every loop in it polls the
//! [`logic`] stop hook, which `Nay::run_cancellable` (or any other caller)
//! installs with [`logic::interruptible`]. A check stopped mid-fixpoint
//! returns *unknown* without issuing the final query: the cut-short
//! abstraction under-approximates the language, so an unsat answer over it
//! would be a false *unrealizable*. The same holds for the Horn mode, whose
//! Kleene loop polls the hook too.

use crate::clia;
use crate::lia;
use crate::modes::Mode;
use chc::{HornSolver, HornVerdict};
use logic::{stop_requested, Formula, LinearExpr, Solver, SolverResult, Var};
use semilinear::concretize_semilinear;
use std::time::{Duration, Instant};
use sygus::{ExampleSet, Problem, Sort, SygusError};

/// naySL always removes trivially-subsumed linear sets as it goes (§7).
const PRUNE: bool = true;

/// The verdict of Alg. 1 on the example-restricted problem `sy_E`.
/// `Unrealizable` means no term of `L(G)` satisfies the specification on
/// the examples, so the full problem is unrealizable too (Lemma 3.5).
/// `Realizable` means some output vector the (exact) abstraction allows
/// satisfies the specification on the examples, so more examples are
/// needed. `Unknown` means the check was inconclusive (approximate mode,
/// or solver budget).
pub use sygus::Verdict;

/// The outcome of a single unrealizability check, with statistics used by
/// the benchmark harness.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The verdict on `sy_E`.
    pub verdict: Verdict,
    /// Size of the abstraction computed for the start symbol (Σ|Vᵢ|+1 for
    /// semi-linear sets, set cardinality for Boolean-vector sets).
    pub abstraction_size: usize,
    /// Number of equation-solver iterations (Newton / SolveMutual rounds).
    pub solver_iterations: usize,
    /// Wall-clock time spent in the check.
    pub elapsed: Duration,
}

/// Runs Algorithm 1 on `(problem.grammar(), problem.spec())` restricted to
/// `examples`, using the given [`Mode`].
///
/// Inside a [`logic::interruptible`] scope the check polls the stop hook in
/// every SolveMutual round, SolveBool round, `⟦<⟧♯`/`⟦=⟧♯` ILP query and
/// left-operand linear set, Newton iteration, matrix-star cell and
/// stratum, in nayHorn's Kleene
/// loop, and in every simplex pivot, ILP node and DNF cube. Once it fires
/// the check returns [`Verdict::Unknown`]. So does a CLIA analysis that is
/// not exact: SolveMutual stopped at its round cap, or a `⟦<⟧♯`/`⟦=⟧♯`
/// query came back unknown.
pub fn check_unrealizable(problem: &Problem, examples: &ExampleSet, mode: &Mode) -> CheckOutcome {
    let started = Instant::now();
    let outcome = |verdict, abstraction_size, solver_iterations| CheckOutcome {
        verdict,
        abstraction_size,
        solver_iterations,
        elapsed: started.elapsed(),
    };

    // With no examples the specification ψ^E is vacuously true, so sy_E is
    // realizable exactly when the grammar derives any term at all.
    if examples.is_empty() {
        let trimmed = problem.grammar().trim();
        let has_terms = trimmed.productions_of(trimmed.start()).next().is_some();
        return outcome(
            if has_terms {
                Verdict::Realizable
            } else {
                Verdict::Unrealizable
            },
            0,
            0,
        );
    }

    if stop_requested() {
        return outcome(Verdict::Unknown, 0, 0);
    }
    let stratified = match mode {
        Mode::Horn => {
            let verdict = match HornSolver::new().check(problem.grammar(), examples, problem.spec())
            {
                HornVerdict::Unrealizable => Verdict::Unrealizable,
                HornVerdict::Unknown => Verdict::Unknown,
            };
            return outcome(verdict, 0, 0);
        }
        Mode::SemiLinear { stratified } => *stratified,
    };

    let rewritten = match sygus::rewrite::to_plus_form(problem.grammar()) {
        Ok(g) => g,
        Err(SygusError::GrammarError(_)) | Err(_) => {
            return outcome(Verdict::Unknown, 0, 0);
        }
    };

    let outputs: Vec<Var> = (0..examples.len())
        .map(|j| Var::indexed("o", j + 1))
        .collect();
    let spec_formula = problem.spec().conjunction_over(examples, &outputs);

    // γ̂(n(Start), o⃗)
    let (gamma, abstraction_size, solver_iterations) = if rewritten.is_lia() {
        match lia::analyze(&rewritten, examples, stratified, PRUNE) {
            Ok(analysis) => {
                let start = analysis.start_value(&rewritten).clone();
                (
                    concretize_semilinear(&start, &outputs),
                    analysis.start_size,
                    analysis.newton_iterations,
                )
            }
            Err(_) => return outcome(Verdict::Unknown, 0, 0),
        }
    } else {
        match clia::solve_mutual(&rewritten, examples, stratified, PRUNE) {
            // An unfinished SolveMutual, or a comparison query that came back
            // unknown, leaves an abstraction that is not exact.
            Ok((analysis, false)) => {
                let size = analysis.start_size(&rewritten);
                return outcome(Verdict::Unknown, size, analysis.outer_iterations);
            }
            Ok((analysis, true)) => {
                let size = analysis.start_size(&rewritten);
                let iterations = analysis.outer_iterations;
                let gamma = match rewritten.sort_of(rewritten.start()) {
                    Some(Sort::Int) => {
                        concretize_semilinear(&analysis.int_values[rewritten.start()], &outputs)
                    }
                    Some(Sort::Bool) => {
                        // the start symbol is Boolean-valued: its abstraction
                        // is a finite set of Boolean vectors, concretized as a
                        // disjunction of 0/1 assignments to the outputs
                        let bset = &analysis.bool_values[rewritten.start()];
                        Formula::or(bset.iter().map(|b| {
                            Formula::and((0..examples.len()).map(|j| {
                                Formula::eq(
                                    LinearExpr::var(outputs[j].clone()),
                                    LinearExpr::constant(i64::from(b[j])),
                                )
                            }))
                        }))
                    }
                    None => Formula::False,
                };
                (gamma, size, iterations)
            }
            Err(_) => return outcome(Verdict::Unknown, 0, 0),
        }
    };

    // A stopped fixpoint under-approximates: it must never reach the query.
    if stop_requested() {
        return outcome(Verdict::Unknown, abstraction_size, solver_iterations);
    }
    // P := γ̂(n(Start), o⃗) ∧ ⋀ⱼ ψ(oⱼ, iⱼ)   (Thm. 4.5)
    let query = Formula::and(vec![gamma, spec_formula]);
    let verdict = match Solver::default().check(&query) {
        SolverResult::Unsat => Verdict::Unrealizable,
        SolverResult::Sat(_) => Verdict::Realizable,
        SolverResult::Unknown => Verdict::Unknown,
    };
    outcome(verdict, abstraction_size, solver_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Formula, LinearExpr, Var};
    use sygus::{GrammarBuilder, Spec, Symbol};

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    /// §2, grammar G1.
    fn section2_lia() -> Problem {
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
        Problem::new("section2-lia", grammar, spec_2x_plus_2())
    }

    /// §2, grammar G2 (CLIA).
    fn section2_clia() -> Problem {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("BExp", Sort::Bool)
            .nonterminal("Exp2", Sort::Int)
            .nonterminal("Exp3", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("N0", Sort::Int)
            .nonterminal("N2", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["BExp", "Exp3", "Start"])
            .chain("Start", "Exp2")
            .chain("Start", "Exp3")
            .production("BExp", Symbol::LessThan, &["X", "N2"])
            .production("BExp", Symbol::LessThan, &["N0", "Start"])
            .production("BExp", Symbol::And, &["BExp", "BExp"])
            .production("Exp2", Symbol::Plus, &["X", "X", "Exp2"])
            .production("Exp2", Symbol::Num(0), &[])
            .production("Exp3", Symbol::Plus, &["X", "X", "X", "Exp3"])
            .production("Exp3", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("N0", Symbol::Num(0), &[])
            .production("N2", Symbol::Num(2), &[])
            .build()
            .unwrap();
        Problem::new("section2-clia", grammar, spec_2x_plus_2())
    }

    #[test]
    fn section2_lia_is_unrealizable_with_one_example() {
        let problem = section2_lia();
        let examples = ExampleSet::for_single_var("x", [1]);
        let outcome = check_unrealizable(&problem, &examples, &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Unrealizable);
        assert!(outcome.abstraction_size >= 1);
    }

    #[test]
    fn section2_lia_with_x2_alone_is_realizable() {
        // With only x = 2 the required output 6 = 3·2 is producible (x+x+x),
        // so the example-restricted problem is realizable.
        let problem = section2_lia();
        let examples = ExampleSet::for_single_var("x", [2]);
        let outcome = check_unrealizable(&problem, &examples, &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Realizable);
    }

    #[test]
    fn section2_clia_verdicts() {
        let problem = section2_clia();
        // x = 1 alone: realizable (2x + 2x = 4 works)
        let one = ExampleSet::for_single_var("x", [1]);
        assert_eq!(
            check_unrealizable(&problem, &one, &Mode::default()).verdict,
            Verdict::Realizable
        );
        // x = 1 and x = 2: still realizable — unlike the paper's §2 narrative
        // there is a witness term, ite(0 < ite(x<2, 0, 3x), 3x, 4x), mapping
        // (1, 2) to (4, 6); the exact procedure correctly reports Realizable.
        let two = ExampleSet::for_single_var("x", [1, 2]);
        assert_eq!(
            check_unrealizable(&problem, &two, &Mode::default()).verdict,
            Verdict::Realizable
        );
        // x = 0 forces every term of G2 to output 0 ≠ 2·0 + 2: unrealizable.
        let zero = ExampleSet::for_single_var("x", [0]);
        assert_eq!(
            check_unrealizable(&problem, &zero, &Mode::default()).verdict,
            Verdict::Unrealizable
        );
        // and adding x = 0 to the two previous examples keeps it unrealizable
        let three = ExampleSet::for_single_var("x", [1, 2, 0]);
        assert_eq!(
            check_unrealizable(&problem, &three, &Mode::default()).verdict,
            Verdict::Unrealizable
        );
    }

    #[test]
    fn horn_mode_proves_the_lia_example() {
        let problem = section2_lia();
        let examples = ExampleSet::for_single_var("x", [1]);
        let outcome = check_unrealizable(&problem, &examples, &Mode::horn());
        assert_eq!(outcome.verdict, Verdict::Unrealizable);
    }

    #[test]
    fn minus_grammars_are_rewritten_automatically() {
        // Start ::= Minus(Start, Start) | Num(2): parity argument — every
        // derivable value is even... actually 2 - (2 - 2) = 2, 2-2 = 0, all
        // values are even. Spec f(x) = 3 is unrealizable.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Minus, &["Start", "Start"])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(3), vec!["x".to_string()]);
        let problem = Problem::new("minus", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [0]);
        let outcome = check_unrealizable(&problem, &examples, &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Unrealizable);
    }

    #[test]
    fn unstratified_mode_agrees() {
        let problem = section2_lia();
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let a = check_unrealizable(&problem, &examples, &Mode::default());
        let b = check_unrealizable(&problem, &examples, &Mode::semi_linear_unstratified());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.verdict, Verdict::Unrealizable);
    }

    #[test]
    fn empty_example_set() {
        let problem = section2_lia();
        let outcome = check_unrealizable(&problem, &ExampleSet::new(), &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Realizable);
    }

    #[test]
    fn an_undecided_comparison_is_never_definitive() {
        // StartB ::= Equal(S, N), S ::= Plus(X, S) | Num(0), N ::= Num(100).
        // S derives λ·x, so on x = 1..14 the vector (t,f,…,f) is in `⟦=⟧♯`
        // (λ = 100), but its query is 2^13 DNF cubes, over the solver's
        // budget. The query comes back unknown, and the check must say so
        // rather than read it as "no such vector".
        let grammar = GrammarBuilder::new("StartB")
            .nonterminal("StartB", Sort::Bool)
            .nonterminal("S", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("N", Sort::Int)
            .production("StartB", Symbol::Equal, &["S", "N"])
            .production("S", Symbol::Plus, &["X", "S"])
            .production("S", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("N", Symbol::Num(100), &[])
            .build()
            .unwrap();
        // f(x) = 0: realizable, e.g. by 0 = 100.
        let spec = Spec::new(
            Formula::eq(LinearExpr::var(Spec::output_var()), LinearExpr::constant(0)),
            vec!["x".to_string()],
            Sort::Bool,
        );
        let problem = Problem::new("undecided", grammar, spec);
        let examples = ExampleSet::for_single_var("x", 1..=14);
        let outcome = check_unrealizable(&problem, &examples, &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Unknown);
        // With fewer examples every query fits the budget.
        let few = ExampleSet::for_single_var("x", 1..=3);
        assert_eq!(
            check_unrealizable(&problem, &few, &Mode::default()).verdict,
            Verdict::Realizable
        );
    }

    #[test]
    fn boolean_output_grammar() {
        // Synthesize a predicate: Start ::= LessThan(X, N0); spec f(x) = 1
        // (always true). With example x = 5 the only producible value is
        // "5 < 0" = false, so sy_E is unrealizable.
        let grammar = GrammarBuilder::new("StartB")
            .nonterminal("StartB", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("N0", Sort::Int)
            .production("StartB", Symbol::LessThan, &["X", "N0"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("N0", Symbol::Num(0), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::eq(LinearExpr::var(Spec::output_var()), LinearExpr::constant(1)),
            vec!["x".to_string()],
            Sort::Bool,
        );
        let problem = Problem::new("predicate", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [5]);
        let outcome = check_unrealizable(&problem, &examples, &Mode::default());
        assert_eq!(outcome.verdict, Verdict::Unrealizable);
        // with x = -3 the predicate is true, so it becomes realizable
        let realizable = ExampleSet::for_single_var("x", [-3]);
        assert_eq!(
            check_unrealizable(&problem, &realizable, &Mode::default()).verdict,
            Verdict::Realizable
        );
    }
}
