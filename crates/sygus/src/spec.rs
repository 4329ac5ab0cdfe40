//! Behavioral specifications `ψ(f(x̄), x̄)` (Def. 3.2).

use crate::example::{Example, ExampleSet};
use crate::semantics::Value;
use crate::term::Sort;
use logic::{Formula, LinearExpr, Model, Var};
use std::fmt;

/// The name of [`Spec::output_var`].
const OUTPUT: &str = "__f_out";

/// A single-invocation behavioral specification.
///
/// The specification is a QF-LIA formula over
///
/// * the input variables `x̄` of the function being synthesized (referred to
///   by name), and
/// * the reserved output variable [`Spec::output_var`] standing for `f(x̄)`.
///
/// Boolean-valued functions use the usual 0/1 integer encoding of their
/// output.
///
/// # Example
/// ```
/// use sygus::{Spec, Example};
/// use logic::{Formula, LinearExpr, Var};
/// // ψ(f, x) :=  f(x) = 2x + 2
/// let spec = Spec::new(
///     Formula::eq(
///         LinearExpr::var(Spec::output_var()),
///         LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
///     ),
///     vec!["x".to_string()],
///     sygus::Sort::Int,
/// );
/// assert!(spec.holds(&Example::from_pairs([("x", 1)]), 4));
/// assert!(!spec.holds(&Example::from_pairs([("x", 1)]), 3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Spec {
    formula: Formula,
    input_vars: Vec<String>,
    output_sort: Sort,
}

impl Spec {
    /// The reserved logical variable standing for the output `f(x̄)`.
    pub fn output_var() -> Var {
        Var::new(OUTPUT)
    }

    /// Creates a specification from a formula over the inputs and
    /// [`Spec::output_var`].
    pub fn new(formula: Formula, input_vars: Vec<String>, output_sort: Sort) -> Self {
        Spec {
            formula,
            input_vars,
            output_sort,
        }
    }

    /// The common special case `f(x̄) = rhs(x̄)` for an integer-valued target.
    pub fn output_equals(rhs: LinearExpr, input_vars: Vec<String>) -> Self {
        Spec::new(
            Formula::eq(LinearExpr::var(Spec::output_var()), rhs),
            input_vars,
            Sort::Int,
        )
    }

    /// The raw specification formula.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The declared input variables `x̄`.
    pub fn input_vars(&self) -> &[String] {
        &self.input_vars
    }

    /// The sort of the synthesized function's output.
    pub fn output_sort(&self) -> Sort {
        self.output_sort
    }

    /// Instantiates `ψ(oⱼ, iⱼ)`: the input variables are replaced by the
    /// example's values and the output variable is renamed to `output`.
    pub fn instantiate(&self, example: &Example, output: &Var) -> Formula {
        let mut f = self
            .formula
            .substitute(&Spec::output_var(), &LinearExpr::var(output.clone()));
        for (x, v) in example.iter() {
            f = f.substitute(&Var::new(x), &LinearExpr::constant(v));
        }
        f
    }

    /// The conjunction `⋀ⱼ ψ(oⱼ, iⱼ)` over an example set (Def. 3.4), with
    /// output variables `o_1, …, o_n`.
    pub fn conjunction_over(&self, examples: &ExampleSet, outputs: &[Var]) -> Formula {
        assert_eq!(
            examples.len(),
            outputs.len(),
            "one output variable per example is required"
        );
        Formula::and(
            examples
                .iter()
                .zip(outputs)
                .map(|(e, o)| self.instantiate(e, o)),
        )
    }

    /// `true` iff the specification holds for the given input example and
    /// output value (Booleans encoded as 0/1), evaluated exactly over ℤ
    /// ([`Formula::eval_with`]): an evaluation that cannot be completed
    /// does not hold, and no value holds only modulo 2⁶⁴.
    pub fn holds(&self, example: &Example, output: i64) -> bool {
        let lookup = |v: &Var| match v.name() {
            OUTPUT => Some(output),
            x => example.get(x),
        };
        self.formula.eval_with(&lookup) == Some(true)
    }

    /// `true` iff the specification holds for a [`Value`] output.
    pub fn holds_value(&self, example: &Example, output: Value) -> bool {
        self.holds(example, output.as_i64())
    }

    /// Builds an [`Example`] for this specification's input variables from a
    /// logical model (missing variables default to 0). Used to turn
    /// counterexample models into new CEGIS examples.
    pub fn example_from_model(&self, model: &Model) -> Example {
        Example::from_pairs(
            self.input_vars
                .iter()
                .map(|x| (x.clone(), model.get_or_zero(&Var::new(x)))),
        )
    }
}

impl fmt::Debug for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ψ({}, {}) := {}",
            Spec::output_var(),
            self.input_vars.join(", "),
            self.formula
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{Solver, SolverResult};

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    #[test]
    fn holds_on_examples() {
        let spec = spec_2x_plus_2();
        assert!(spec.holds(&Example::from_pairs([("x", 1)]), 4));
        assert!(spec.holds(&Example::from_pairs([("x", 2)]), 6));
        assert!(!spec.holds(&Example::from_pairs([("x", 2)]), 8));
    }

    #[test]
    fn holds_is_exact_at_the_i64_boundaries() {
        // f(x) = x + 1: at x = 2⁶³ − 1 the output 2⁶³ is no i64, and the
        // wrapped −2⁶³ must not hold
        let succ = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(1),
            vec!["x".to_string()],
        );
        let top = Example::from_pairs([("x", i64::MAX)]);
        assert!(!succ.holds(&top, i64::MIN));
        let below = Example::from_pairs([("x", i64::MAX - 1)]);
        assert!(succ.holds(&below, i64::MAX));
        // f(x) = 2x: −2⁶³ is 2·(−2⁶²) but not 2·2⁶²
        let double = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2),
            vec!["x".to_string()],
        );
        assert!(double.holds(&Example::from_pairs([("x", -(1 << 62))]), i64::MIN));
        assert!(!double.holds(&Example::from_pairs([("x", 1 << 62)]), i64::MIN));
        // f(x) + f(x) = 2 holds for 1, not for −(2⁶³ − 1), whose double is
        // 2 only modulo 2⁶⁴
        let twice = Spec::new(
            Formula::eq(
                LinearExpr::var(Spec::output_var()).scale(2),
                LinearExpr::constant(2),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        let zero = Example::from_pairs([("x", 0)]);
        assert!(twice.holds(&zero, 1));
        assert!(!twice.holds(&zero, -i64::MAX));
        assert!(
            !Spec::new(Formula::not(twice.formula().clone()), vec![], Sort::Int).holds(&zero, 1)
        );
    }

    #[test]
    fn instantiation_substitutes_inputs() {
        let spec = spec_2x_plus_2();
        let o1 = Var::indexed("o", 1);
        let f = spec.instantiate(&Example::from_pairs([("x", 1)]), &o1);
        // f should be  o1 = 2·1 + 2, satisfiable only by o1 = 4
        let mut m = Model::new();
        m.set(o1.clone(), 4);
        assert!(f.eval(&m));
        m.set(o1, 5);
        assert!(!f.eval(&m));
    }

    #[test]
    fn conjunction_over_examples() {
        let spec = spec_2x_plus_2();
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let outputs = vec![Var::indexed("o", 1), Var::indexed("o", 2)];
        let f = spec.conjunction_over(&examples, &outputs);
        let solver = Solver::default();
        match solver.check(&f) {
            SolverResult::Sat(m) => {
                assert_eq!(m.get(&outputs[0]), Some(4));
                assert_eq!(m.get(&outputs[1]), Some(6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inequality_spec() {
        // ψ(f, x) := f(x) > x  (the Gconst example, Ex. 3.8)
        let spec = Spec::new(
            Formula::gt(
                LinearExpr::var(Spec::output_var()),
                LinearExpr::var(Var::new("x")),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        assert!(spec.holds(&Example::from_pairs([("x", 3)]), 4));
        assert!(!spec.holds(&Example::from_pairs([("x", 3)]), 3));
    }

    #[test]
    fn example_from_model_round_trip() {
        let spec = spec_2x_plus_2();
        let mut m = Model::new();
        m.set(Var::new("x"), 17);
        let e = spec.example_from_model(&m);
        assert_eq!(e.get("x"), Some(17));
    }
}
