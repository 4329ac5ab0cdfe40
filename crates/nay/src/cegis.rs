//! Algorithm 2: the CEGIS loop with random examples (§7).
//!
//! The paper runs two processes in parallel: ① the enumerative synthesizer
//! ESolver looking for a solution of `sy_E`, and ② the grammar-flow-analysis
//! unrealizability check on `E ∪ E_r`, where `E_r` is a growing set of
//! *temporary* random examples used when GFA says "realizable" but no
//! candidate is available yet. This reproduction interleaves the two
//! processes deterministically in a single thread:
//!
//! 1. run the unrealizability check on `E ∪ E_r`; if it returns
//!    *unrealizable*, stop — the SyGuS problem is unrealizable (Lemma 3.5);
//! 2. otherwise ask the bottom-up term search ([`enumerative::search`], the
//!    search nope's bounded half runs too) for a candidate consistent with
//!    `E`;
//!    * if the search proves `sy_E` has no solution at all (it is
//!      exhausted), stop with *unrealizable*;
//!    * if a candidate is found, verify it against the full specification:
//!      a counterexample extends `E` and a new CEGIS iteration starts; a
//!      verified candidate is returned as a solution;
//!    * otherwise (the search hit its round or vector bound, or dropped an
//!      overflowing run), add a temporary random example to `E_r` and go
//!      back to step 1.

use crate::check::{check_unrealizable, Verdict};
use crate::modes::Mode;
use crate::verifier::{verify, Verification};
use logic::stop_requested;
use runner::Cancel;
use std::time::{Duration, Instant};
use sygus::rng::{random_example, EXAMPLE_SEED};
use sygus::{ExampleSet, Problem, Term};

/// The final outcome of the CEGIS loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CegisOutcome {
    /// The SyGuS problem has no solution.
    Unrealizable,
    /// A term of `L(G)` satisfying the specification on all inputs.
    Solution(Term),
    /// The loop exhausted its iteration budget without a verdict.
    Unknown,
    /// [`Nay::run_cancellable`]'s [`Cancel`] token tripped before the loop
    /// reached a definitive outcome (portfolio racing: the other engine
    /// answered first, or the deadline passed).
    Cancelled,
}

/// Statistics collected across a CEGIS run (the quantities reported in
/// Tables 1 and 2).
#[derive(Clone, Debug, Default)]
pub struct CegisStats {
    /// Number of outer CEGIS iterations (counterexamples generated + 1).
    pub cegis_iterations: usize,
    /// Number of (permanent) examples in `E` when the loop stopped — the
    /// `|E|` column of the tables.
    pub num_examples: usize,
    /// Number of temporary random examples drawn.
    pub random_examples: usize,
    /// Number of GFA / Horn unrealizability checks issued.
    pub gfa_checks: usize,
    /// Total time spent inside the unrealizability checks.
    pub check_time: Duration,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Size of the final abstraction of the start symbol.
    pub final_abstraction_size: usize,
    /// The largest node count of one term search in the run, one node
    /// per vector kept ([`enumerative::SearchResult::nodes`]).
    pub arena_terms: usize,
}

/// The maximal number of outer CEGIS iterations of one run.
const MAX_CEGIS_ITERATIONS: usize = 12;

/// The maximal number of temporary random examples one iteration draws.
const MAX_RANDOM_EXAMPLES: usize = 4;

/// The CEGIS driver (the `nay` tool of §7).
#[derive(Clone, Debug, Default)]
pub struct Nay {
    mode: Mode,
}

impl Nay {
    /// Creates a driver with the default configuration (naySL mode).
    pub fn new() -> Self {
        Nay::default()
    }

    /// Selects the equation-solving mode (naySL or nayHorn).
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the CEGIS loop of Alg. 2 on the problem.
    ///
    /// Inside a [`logic::interruptible`] scope the loop polls the stop hook
    /// at the top of every outer CEGIS iteration and every check, inside
    /// every unrealizability check (per GFA step, see
    /// [`check_unrealizable`]), in the term search (per round) and in the
    /// verifier's solver; a stopped run ends [`CegisOutcome::Unknown`].
    pub fn run(&self, problem: &Problem) -> (CegisOutcome, CegisStats) {
        let started = Instant::now();
        let mut stats = CegisStats::default();
        let outcome = self.cegis(problem, &mut stats);
        stats.total_time = started.elapsed();
        (outcome, stats)
    }

    /// [`Nay::run`] under a cancellation token: the run is one
    /// [`logic::interruptible`] scope polling `cancel`, so a trip is
    /// observed within one GFA step, search round or solver step, and a run
    /// that ends without a definitive outcome while the token is tripped
    /// returns [`CegisOutcome::Cancelled`].
    pub fn run_cancellable(
        &self,
        problem: &Problem,
        cancel: &Cancel,
    ) -> (CegisOutcome, CegisStats) {
        let token = cancel.clone();
        match logic::interruptible(move || token.is_cancelled(), || self.run(problem)) {
            (CegisOutcome::Unknown, stats) if cancel.is_cancelled() => {
                (CegisOutcome::Cancelled, stats)
            }
            finished => finished,
        }
    }

    /// The loop body of [`Nay::run`].
    fn cegis(&self, problem: &Problem, stats: &mut CegisStats) -> CegisOutcome {
        let mut rng = EXAMPLE_SEED;

        // line 1: initialise E with a random input example
        let mut examples = ExampleSet::new();
        examples.push(random_example(problem, &mut rng));

        for _ in 0..MAX_CEGIS_ITERATIONS {
            if stop_requested() {
                return CegisOutcome::Unknown;
            }
            stats.cegis_iterations += 1;
            stats.num_examples = examples.len();

            // ② unrealizability side, with temporary random examples E_r
            let mut extended = examples.clone();
            let mut drew_random = 0usize;
            loop {
                if stop_requested() {
                    return CegisOutcome::Unknown;
                }
                stats.gfa_checks += 1;
                let outcome = check_unrealizable(problem, &extended, &self.mode);
                stats.check_time += outcome.elapsed;
                stats.final_abstraction_size = outcome.abstraction_size;
                match outcome.verdict {
                    Verdict::Unrealizable => {
                        stats.num_examples = extended.len();
                        return CegisOutcome::Unrealizable;
                    }
                    // A check cut short by the stop hook says Unknown.
                    Verdict::Realizable | Verdict::Unknown if stop_requested() => {
                        return CegisOutcome::Unknown;
                    }
                    Verdict::Realizable | Verdict::Unknown => {
                        // ① the synthesizer side works on the permanent E only
                        let found =
                            enumerative::search(problem.grammar(), &examples, problem.spec());
                        stats.arena_terms = stats.arena_terms.max(found.nodes);
                        if stop_requested() {
                            return CegisOutcome::Unknown;
                        }
                        match found.witness {
                            Some(candidate) => {
                                match verify(&candidate, problem.spec()) {
                                    Verification::Valid => {
                                        return CegisOutcome::Solution(candidate);
                                    }
                                    Verification::CounterExample(cex) => {
                                        if !examples.contains(&cex) {
                                            examples.push(cex);
                                        } else {
                                            // degenerate case: restart with a
                                            // fresh random example
                                            examples.push(random_example(problem, &mut rng));
                                        }
                                        break; // next CEGIS iteration
                                    }
                                    Verification::Unknown => return CegisOutcome::Unknown,
                                }
                            }
                            None if found.exhausted => {
                                // every output vector on E was covered:
                                // sy_E itself is unrealizable
                                return CegisOutcome::Unrealizable;
                            }
                            None => {
                                if drew_random >= MAX_RANDOM_EXAMPLES {
                                    return CegisOutcome::Unknown;
                                }
                                drew_random += 1;
                                stats.random_examples += 1;
                                extended.push(random_example(problem, &mut rng));
                                continue;
                            }
                        }
                    }
                }
            }
        }
        CegisOutcome::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Formula, LinearExpr, Var};
    use sygus::{GrammarBuilder, Sort, Spec, Symbol};

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

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

    #[test]
    fn proves_unrealizability_end_to_end() {
        let (outcome, stats) = Nay::new().run(&section2_lia());
        assert_eq!(outcome, CegisOutcome::Unrealizable);
        assert!(stats.cegis_iterations >= 1);
        assert!(stats.gfa_checks >= 1);
        assert!(stats.num_examples >= 1);
    }

    #[test]
    fn finds_a_solution_when_one_exists() {
        // Start ::= x | x + Start | 1: f(x) = x + 2 is synthesizable.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("xplus2", grammar, spec);
        let (outcome, _) = Nay::new().run(&problem);
        match outcome {
            CegisOutcome::Solution(term) => {
                assert_eq!(verify(&term, problem.spec()), Verification::Valid);
                assert!(problem.grammar().contains_term(&term));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn candidate_pool_size_is_reported() {
        // a realizable problem forces at least one search, which records
        // candidate nodes
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("xplus2", grammar, spec);
        let (outcome, stats) = Nay::new().run(&problem);
        assert!(matches!(outcome, CegisOutcome::Solution(_)));
        assert!(stats.arena_terms > 0, "{stats:?}");
    }

    #[test]
    fn horn_mode_end_to_end() {
        let (outcome, _) = Nay::new().with_mode(Mode::horn()).run(&section2_lia());
        assert_eq!(outcome, CegisOutcome::Unrealizable);
    }

    #[test]
    fn incomplete_on_gconst() {
        // Example 3.8: Gconst with spec f(x) > x is unrealizable but no CEGIS
        // algorithm can prove it — every sy_E is realizable. The loop must
        // therefore terminate with Unknown or a (spurious-looking but
        // example-correct) candidate... since candidates are verified against
        // the full spec, the only possible outcomes are Unknown.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::gt(
                LinearExpr::var(Spec::output_var()),
                LinearExpr::var(Var::new("x")),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        let problem = Problem::new("gconst", grammar, spec);
        let (outcome, _) = Nay::new().run(&problem);
        assert_eq!(outcome, CegisOutcome::Unknown);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let cancel = Cancel::new();
        cancel.cancel();
        let (outcome, stats) = Nay::new().run_cancellable(&section2_lia(), &cancel);
        assert_eq!(outcome, CegisOutcome::Cancelled);
        // Observed at the top of the first outer iteration: no checks ran.
        assert_eq!(stats.cegis_iterations, 0);
        assert_eq!(stats.gfa_checks, 0);
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let a = Nay::new().run(&section2_lia());
        let b = Nay::new().run(&section2_lia());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.num_examples, b.1.num_examples);
    }
}
