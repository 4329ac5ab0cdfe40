//! The candidate verifier of the CEGIS loop (Alg. 2, line 6).
//!
//! The paper uses CVC4 to check whether a candidate returned by the
//! synthesizer (here `enumerative::search`, paper: ESolver) satisfies the specification on *all* inputs, and
//! to produce a counterexample input when it does not. Here the same query —
//! `∃ x̄. ¬ψ(⟦e⟧(x̄), x̄)` — is encoded by `sygus::encode` and discharged by
//! the `logic` solver. Inside a [`logic::interruptible`] scope that solver
//! polls the stop hook, and a stopped verification answers
//! [`Verification::Unknown`].

use logic::{Solver, SolverResult};
use sygus::encode::counterexample_query;
use sygus::{Example, Spec, Term};

/// The result of verifying a candidate against the full specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verification {
    /// The candidate satisfies the specification on every input.
    Valid,
    /// The candidate violates the specification on the returned input.
    CounterExample(Example),
    /// The verifier could not decide (solver budget exceeded).
    Unknown,
}

/// Checks a candidate term against the specification over all inputs.
pub fn verify(candidate: &Term, spec: &Spec) -> Verification {
    let query = counterexample_query(candidate, spec);
    match Solver::default().check(&query) {
        SolverResult::Unsat => Verification::Valid,
        SolverResult::Sat(model) => {
            let example = spec.example_from_model(&model);
            Verification::CounterExample(example)
        }
        SolverResult::Unknown => Verification::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Formula, LinearExpr, Var};
    use sygus::{Sort, Symbol};

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    #[test]
    fn valid_candidate() {
        let candidate = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::num(2)],
        )
        .unwrap();
        assert_eq!(verify(&candidate, &spec_2x_plus_2()), Verification::Valid);
    }

    #[test]
    fn invalid_candidate_produces_a_true_counterexample() {
        // 3x is correct only on x = 2 for the spec 2x + 2... actually 3x = 2x+2
        // iff x = 2, so any other input is a counterexample.
        let candidate = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x")],
        )
        .unwrap();
        match verify(&candidate, &spec_2x_plus_2()) {
            Verification::CounterExample(cex) => {
                let out = candidate.eval(&cex).unwrap();
                assert!(!spec_2x_plus_2().holds_value(&cex, out));
                assert_ne!(cex.get("x"), Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_stopped_verification_is_unknown() {
        // 2x + 2 is valid, 3x is not: a stopped verifier proves neither.
        let valid = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::num(2)],
        )
        .unwrap();
        let invalid = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x")],
        )
        .unwrap();
        for candidate in [valid, invalid] {
            let verdict = logic::interruptible(|| true, || verify(&candidate, &spec_2x_plus_2()));
            assert_eq!(verdict, Verification::Unknown, "on {candidate}");
        }
    }

    #[test]
    fn conditional_candidate() {
        // spec: f(x) ≥ x and f(x) ≥ 0
        let spec = Spec::new(
            Formula::and(vec![
                Formula::ge(
                    LinearExpr::var(Spec::output_var()),
                    LinearExpr::var(Var::new("x")),
                ),
                Formula::ge(LinearExpr::var(Spec::output_var()), LinearExpr::constant(0)),
            ]),
            vec!["x".to_string()],
            Sort::Int,
        );
        // ite(x < 0, 0, x) is exactly max(x, 0): valid
        let good = Term::ite(
            Term::less_than(Term::var("x"), Term::num(0)),
            Term::num(0),
            Term::var("x"),
        )
        .unwrap();
        assert_eq!(verify(&good, &spec), Verification::Valid);
        // the identity is not valid (fails for negative x)
        match verify(&Term::var("x"), &spec) {
            Verification::CounterExample(cex) => assert!(cex.get("x").unwrap() < 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
