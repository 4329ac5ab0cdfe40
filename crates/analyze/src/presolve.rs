//! The abstract pre-solve: a cheap static attempt to settle a SyGuS
//! problem before any engine runs.
//!
//! Three lanes, in order:
//!
//! 1. **Empty language** — the start symbol derives no term at all, so no
//!    solution exists: `Unrealizable`.
//! 2. **Finite enumeration** — when the grammar's language is finite and
//!    small, every term is checked against the exact counterexample query
//!    ([`sygus::encode::counterexample_query`]): a term with an `Unsat`
//!    query is a verified witness (`Realizable`); if *every* term has a
//!    concrete counterexample the language is exhausted (`Unrealizable`).
//! 3. **Abstract refutation** — [`chc::HornSolver`]'s interval ×
//!    congruence fixpoint over the grammar's nonterminals, on a set of
//!    concrete probe inputs (the abstract interpreter nayHorn and nope
//!    use, run once over all probes). Every program in `L(G)` evaluates, on each
//!    probe, to a value inside the start symbol's abstract output; if the
//!    exact QF-LIA solver proves [`chc::refutation_query`] unsatisfiable
//!    for one probe — no such value satisfies the instantiated
//!    specification — the problem is `Unrealizable`.
//!
//! All three lanes abstain (verdict [`PresolveVerdict::Unknown`]) rather
//! than guess whenever the solver returns `Unknown` or a cap is hit (a
//! fixpoint still moving at its round cap yields no values), so a
//! presolve verdict is always backed by an exact proof — this is what
//! makes it safe for the portfolio to skip engine dispatch. Every
//! definitive outcome carries a [`PresolveReason`] that
//! [`Presolver::recheck`] can re-validate from scratch.

use std::fmt;

use chc::domain::AbsValue;
use chc::{refutation_query, HornSolver};
use logic::{Solver, SolverResult};
use sygus::encode::counterexample_query;
use sygus::{Example, ExampleSet, Problem, Spec, Term};

use crate::grammar::analyze_grammar;

/// What the presolve concluded: `Realizable` with a verified witness
/// term, `Unrealizable` when no term of the grammar can satisfy the
/// specification, or `Unknown` when it abstained and the engines must run.
pub use sygus::Verdict as PresolveVerdict;

/// Why the presolve reached its verdict. Every definitive reason can be
/// re-validated from scratch via [`Presolver::recheck`].
#[derive(Clone, Debug)]
pub enum PresolveReason {
    /// The start symbol is unproductive: `L(G) = ∅`.
    EmptyLanguage,
    /// A finite language contained a term whose counterexample query is
    /// unsatisfiable (the term in [`PresolveOutcome::witness`]).
    FiniteWitness {
        /// Size of the enumerated language.
        candidates: usize,
    },
    /// A finite language was exhausted: every term has a concrete
    /// counterexample.
    FiniteExhausted {
        /// Size of the enumerated language.
        candidates: usize,
    },
    /// On the given concrete input, the abstract output of the grammar
    /// cannot satisfy the specification (proved by an exact QF-LIA query).
    AbstractRefutation {
        /// The probe input, one `(variable, value)` pair per input.
        inputs: Vec<(String, i64)>,
        /// The abstract output of the start symbol on that input (one
        /// component).
        output: AbsValue,
    },
    /// No lane concluded anything.
    Abstain {
        /// What was tried.
        detail: String,
    },
}

impl fmt::Display for PresolveReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PresolveReason::EmptyLanguage => write!(f, "the grammar derives no terms"),
            PresolveReason::FiniteWitness { candidates } => write!(
                f,
                "finite language ({candidates} terms) contains a verified witness"
            ),
            PresolveReason::FiniteExhausted { candidates } => write!(
                f,
                "finite language exhausted: all {candidates} terms have counterexamples"
            ),
            PresolveReason::AbstractRefutation { inputs, output } => {
                write!(f, "abstract output {output} on input ")?;
                if inputs.is_empty() {
                    write!(f, "()")?;
                } else {
                    let rendered: Vec<String> =
                        inputs.iter().map(|(x, v)| format!("{x}={v}")).collect();
                    write!(f, "{}", rendered.join(", "))?;
                }
                write!(f, " cannot satisfy the specification")
            }
            PresolveReason::Abstain { detail } => write!(f, "abstained: {detail}"),
        }
    }
}

/// The outcome of a presolve run.
#[derive(Clone, Debug)]
pub struct PresolveOutcome {
    /// The verdict.
    pub verdict: PresolveVerdict,
    /// The checkable reason.
    pub reason: PresolveReason,
    /// A verified witness term, for `Realizable` verdicts.
    pub witness: Option<Term>,
}

impl PresolveOutcome {
    /// `true` when the presolve settled the problem.
    pub fn is_definitive(&self) -> bool {
        self.verdict != PresolveVerdict::Unknown
    }

    fn abstain(detail: impl Into<String>) -> PresolveOutcome {
        PresolveOutcome {
            verdict: PresolveVerdict::Unknown,
            reason: PresolveReason::Abstain {
                detail: detail.into(),
            },
            witness: None,
        }
    }
}

/// The static pre-solver. All caps are deliberately small: the presolve
/// runs in front of *every* portfolio race and must cost microseconds to
/// low milliseconds, never compete with the engines.
#[derive(Clone, Debug)]
pub struct Presolver {
    solver: Solver,
    /// The abstract interpreter of the refutation lane.
    fixpoint: HornSolver,
    /// Finite-language verification is skipped above this many candidates.
    max_candidates: usize,
    /// At most this many probe inputs are tried in the abstract lane.
    max_probes: usize,
}

impl Default for Presolver {
    fn default() -> Self {
        Presolver::new()
    }
}

impl Presolver {
    /// A presolver with the default (small) budgets.
    pub fn new() -> Self {
        Presolver {
            solver: Solver::default(),
            // nayHorn widens after 3 rounds; waiting 8 keeps the bounds of
            // deeper grammars (`corpus/deep_plus.sl`, the quick
            // `plus_plane` rows) that the earlier widening loses.
            fixpoint: HornSolver::new().with_widening_delay(8),
            max_candidates: 64,
            max_probes: 16,
        }
    }

    /// Runs the three lanes on a problem.
    pub fn presolve(&self, problem: &Problem) -> PresolveOutcome {
        let grammar = problem.grammar();
        let spec = problem.spec();
        let report = analyze_grammar(grammar);

        // Lane 1: empty language.
        if report.empty_language {
            return PresolveOutcome {
                verdict: PresolveVerdict::Unrealizable,
                reason: PresolveReason::EmptyLanguage,
                witness: None,
            };
        }

        // Lane 2: finite enumeration.
        if let Some(finite) = &report.finite {
            if finite.complete && finite.terms.len() <= self.max_candidates {
                let mut all_refuted = true;
                for t in &finite.terms {
                    match self.solver.check(&counterexample_query(t, spec)) {
                        SolverResult::Unsat => {
                            return PresolveOutcome {
                                verdict: PresolveVerdict::Realizable,
                                reason: PresolveReason::FiniteWitness {
                                    candidates: finite.terms.len(),
                                },
                                witness: Some(t.clone()),
                            }
                        }
                        SolverResult::Sat(_) => {}
                        SolverResult::Unknown => all_refuted = false,
                    }
                }
                if all_refuted {
                    return PresolveOutcome {
                        verdict: PresolveVerdict::Unrealizable,
                        reason: PresolveReason::FiniteExhausted {
                            candidates: finite.terms.len(),
                        },
                        witness: None,
                    };
                }
                // fall through to the abstract lane
            }
        }

        // Lane 3: abstract refutation over probe inputs.
        let probes = self.probes(spec);
        if let (Some(values), _) = self.fixpoint.analyze(grammar, &probes) {
            let start = &values[grammar.start()];
            for (j, probe) in probes.iter().enumerate() {
                let output = start.component(j);
                if self.refutes(spec, probe, &output) {
                    let inputs: Vec<(String, i64)> = spec
                        .input_vars()
                        .iter()
                        .filter_map(|x| probe.get(x).map(|v| (x.clone(), v)))
                        .collect();
                    return PresolveOutcome {
                        verdict: PresolveVerdict::Unrealizable,
                        reason: PresolveReason::AbstractRefutation { inputs, output },
                        witness: None,
                    };
                }
            }
        }

        PresolveOutcome::abstain(format!(
            "no refutation on {} probes; language {}",
            probes.len(),
            if report.finite.is_some() {
                "finite but not settled"
            } else {
                "infinite"
            }
        ))
    }

    /// Independently re-validates a presolve outcome against the problem.
    ///
    /// This is the *gate* the portfolio applies before trusting a presolve
    /// verdict: the reason is re-derived from scratch (re-enumeration,
    /// re-abstraction, fresh solver queries), so a bug that fabricated a
    /// verdict without a valid proof is caught here instead of flipping a
    /// race verdict.
    pub fn recheck(&self, problem: &Problem, outcome: &PresolveOutcome) -> bool {
        let grammar = problem.grammar();
        let spec = problem.spec();
        match &outcome.reason {
            PresolveReason::EmptyLanguage => {
                outcome.verdict == PresolveVerdict::Unrealizable
                    && !grammar.productive().contains(grammar.start())
            }
            PresolveReason::FiniteWitness { .. } => {
                outcome.verdict == PresolveVerdict::Realizable
                    && match &outcome.witness {
                        Some(w) => {
                            grammar.contains_term(w)
                                && self.solver.check(&counterexample_query(w, spec))
                                    == SolverResult::Unsat
                        }
                        None => false,
                    }
            }
            PresolveReason::FiniteExhausted { candidates } => {
                if outcome.verdict != PresolveVerdict::Unrealizable {
                    return false;
                }
                let report = analyze_grammar(grammar);
                match &report.finite {
                    Some(f) if f.complete && f.terms.len() == *candidates => {
                        f.terms.iter().all(|t| {
                            matches!(
                                self.solver.check(&counterexample_query(t, spec)),
                                SolverResult::Sat(_)
                            )
                        })
                    }
                    _ => false,
                }
            }
            PresolveReason::AbstractRefutation { inputs, output } => {
                if outcome.verdict != PresolveVerdict::Unrealizable {
                    return false;
                }
                let probe = Example::from_pairs(inputs.iter().map(|(x, v)| (x.clone(), *v)));
                let (recomputed, _) = self
                    .fixpoint
                    .analyze(grammar, &ExampleSet::from_examples([probe.clone()]));
                recomputed.is_some_and(|values| values[grammar.start()] == *output)
                    && self.refutes(spec, &probe, output)
            }
            PresolveReason::Abstain { .. } => outcome.verdict == PresolveVerdict::Unknown,
        }
    }

    /// `true` when the exact solver proves that no value in `output`, the
    /// start symbol's abstract output on `probe`, satisfies the
    /// specification there.
    fn refutes(&self, spec: &Spec, probe: &Example, output: &AbsValue) -> bool {
        let probe = ExampleSet::from_examples([probe.clone()]);
        self.solver.check(&refutation_query(output, &probe, spec)) == SolverResult::Unsat
    }

    /// Deterministic probe inputs: a small grid around zero, extended with
    /// values mined from the specification's atoms (so point constraints
    /// like `x = 7 ⇒ …` get probed at exactly `x = 7`).
    fn probes(&self, spec: &Spec) -> ExampleSet {
        let vars = spec.input_vars();
        if vars.is_empty() {
            return ExampleSet::from_examples([Example::new()]);
        }
        let mut values: Vec<i64> = vec![0, 1, -1, 2, -2];
        for atom in spec.formula().atoms() {
            let d = atom.difference();
            let c = d.constant_part();
            for (v, coeff) in d.terms() {
                if *v == Spec::output_var() {
                    continue;
                }
                // a ±1-coefficient variable solves to ∓constant when the
                // other variables are zero — exactly the axis probes below
                let mined = match coeff {
                    1 => -c,
                    -1 => c,
                    _ => continue,
                };
                if !values.contains(&mined) {
                    values.push(mined);
                }
            }
        }
        values.truncate(12);

        let mut probes: Vec<Example> = Vec::new();
        let push = |probes: &mut Vec<Example>, e: Example| {
            if probes.len() < self.max_probes && !probes.contains(&e) {
                probes.push(e);
            }
        };
        for &v in &values {
            // diagonal probe: every variable = v (for one variable this is
            // the whole grid)
            push(
                &mut probes,
                Example::from_pairs(vars.iter().map(|x| (x.clone(), v))),
            );
            // axis probes: one variable = v, the others 0
            if vars.len() > 1 && v != 0 {
                for x in vars {
                    push(
                        &mut probes,
                        Example::from_pairs(
                            vars.iter().map(|y| (y.clone(), if y == x { v } else { 0 })),
                        ),
                    );
                }
            }
        }
        ExampleSet::from_examples(probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc::domain::{AbsInt, Congruence, Interval};
    use logic::{Formula, LinearExpr, Var};
    use sygus::{Grammar, GrammarBuilder, Sort, Symbol};

    fn presolver() -> Presolver {
        Presolver::new()
    }

    fn problem(grammar: Grammar, spec: Spec) -> Problem {
        Problem::new("presolve-test", grammar, spec)
    }

    #[test]
    fn empty_language_is_unrealizable() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(LinearExpr::constant(0), vec![]);
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unrealizable);
        assert!(matches!(out.reason, PresolveReason::EmptyLanguage));
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn finite_language_witness_is_found_and_verified() {
        // Start ::= 1 | 2, spec f = 2
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(LinearExpr::constant(2), vec![]);
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Realizable);
        assert_eq!(out.witness, Some(Term::num(2)));
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn finite_language_exhaustion_is_unrealizable() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(LinearExpr::constant(3), vec![]);
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unrealizable);
        assert!(matches!(
            out.reason,
            PresolveReason::FiniteExhausted { candidates: 2 }
        ));
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn parity_refutes_the_unreal_parity_shape() {
        // Start ::= 2 | (- Start Start): every output is ≡ 0 (mod 2); spec f = 3
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(2), &[])
            .production("Start", Symbol::Minus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(LinearExpr::constant(3), vec!["x".to_string()]);
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unrealizable);
        match &out.reason {
            PresolveReason::AbstractRefutation { output, .. } => match output {
                AbsValue::Int(v) => {
                    assert_eq!(v[0].congruence, Congruence { modulus: 2, rem: 0 });
                }
                other => panic!("unexpected output {other}"),
            },
            other => panic!("unexpected reason {other}"),
        }
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn interval_refutes_a_const_sum_shape() {
        // Start ::= 5 | (+ Start Start): outputs ⊆ [5, ∞); spec f = 3
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Num(5), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(LinearExpr::constant(3), vec![]);
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unrealizable);
        match &out.reason {
            PresolveReason::AbstractRefutation { output, .. } => match output {
                AbsValue::Int(v) => assert_eq!(v[0].interval.lo, Some(5)),
                other => panic!("unexpected output {other}"),
            },
            other => panic!("unexpected reason {other}"),
        }
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn origin_probe_refutes_a_max_gap_shape() {
        // constant-free CLIA grammar: at x = y = 0 every output is 0, but
        // the spec wants f = x + 1
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::Var("x".into()), &[])
            .production("Start", Symbol::Var("y".into()), &[])
            .production("Start", Symbol::Num(0), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(1),
            vec!["x".to_string(), "y".to_string()],
        );
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unrealizable);
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn realizable_infinite_languages_abstain() {
        // Start ::= x | 0 | (+ Start Start), spec f = 2x — realizable
        // (x + x), but the language is infinite so the presolve abstains
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".into()), &[])
            .production("Start", Symbol::Num(0), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2),
            vec!["x".to_string()],
        );
        let p = problem(g, spec);
        let out = presolver().presolve(&p);
        assert_eq!(out.verdict, PresolveVerdict::Unknown);
        assert!(presolver().recheck(&p, &out));
    }

    #[test]
    fn recheck_rejects_fabricated_outcomes() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".into()), &[])
            .production("Start", Symbol::Num(0), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .expect("well-formed grammar");
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2),
            vec!["x".to_string()],
        );
        let p = problem(g, spec);
        // a made-up empty-language claim must not pass the gate
        let fake = PresolveOutcome {
            verdict: PresolveVerdict::Unrealizable,
            reason: PresolveReason::EmptyLanguage,
            witness: None,
        };
        assert!(!presolver().recheck(&p, &fake));
        // a witness that is not in the grammar must not pass either
        let fake = PresolveOutcome {
            verdict: PresolveVerdict::Realizable,
            reason: PresolveReason::FiniteWitness { candidates: 1 },
            witness: Some(Term::num(7)),
        };
        assert!(!presolver().recheck(&p, &fake));
    }

    #[test]
    fn probes_cover_spec_constants() {
        let spec = Spec::new(
            Formula::implies(
                Formula::eq(LinearExpr::var(Var::new("x")), LinearExpr::constant(7)),
                Formula::eq(LinearExpr::var(Spec::output_var()), LinearExpr::constant(9)),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        let probes = presolver().probes(&spec);
        assert!(
            probes.iter().any(|e| e.get("x") == Some(7)),
            "mined probe x=7 missing from {probes:?}"
        );
    }

    #[test]
    fn abstract_domain_arithmetic() {
        let a = AbsInt::constant(2).join(&AbsInt::constant(6));
        assert_eq!(
            a.interval,
            Interval {
                lo: Some(2),
                hi: Some(6)
            }
        );
        assert_eq!(a.congruence, Congruence { modulus: 4, rem: 2 });
        let b = a.join(&AbsInt::constant(4)).add(&AbsInt::constant(1));
        assert_eq!(
            b.interval,
            Interval {
                lo: Some(3),
                hi: Some(7)
            }
        );
        assert_eq!(b.congruence, Congruence { modulus: 2, rem: 1 });
        assert_eq!(b.to_string(), "[3, 7] ≡ 1 (mod 2)");
        // widening lets moving bounds escape to infinity
        let w = a.widen(&a.join(&AbsInt::constant(100)));
        assert_eq!(
            w.interval,
            Interval {
                lo: Some(2),
                hi: None
            }
        );
        assert_eq!(w.to_string(), "[2, +∞) ≡ 0 (mod 2)");
        assert!(Interval::constant(3).meets(&Interval::constant(3)));
        assert!(!Interval::constant(3).meets(&Interval::constant(4)));
        assert!(
            !a.congruence.meets(&b.congruence),
            "even and odd are disjoint"
        );
    }
}
