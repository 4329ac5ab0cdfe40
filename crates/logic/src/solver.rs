//! Satisfiability checking for QF-LIA formulas.

use crate::expr::Var;
use crate::formula::{Atom, Formula, Rel};
use crate::ilp::{Constraint, IlpProblem, IlpResult};
use crate::interrupt::stop_requested;
use crate::model::Model;
use crate::simplex::LpRel;
use std::collections::BTreeMap;

/// The verdict of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverResult {
    /// The formula is satisfiable; the model witnesses it.
    Sat(Model),
    /// The formula has no integer model.
    Unsat,
    /// The solver exceeded its budget (DNF explosion or branch-and-bound cap).
    Unknown,
}

impl SolverResult {
    /// `true` if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }
    /// `true` if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }
    /// The model, if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// A QF-LIA satisfiability solver.
///
/// The solver is complete on formulas whose DNF stays within 4096 cubes
/// and whose cubes stay within the branch-and-bound budget of 4000 nodes
/// each; otherwise it
/// reports [`SolverResult::Unknown`]. All the queries issued by the
/// unrealizability checker fall well inside those budgets.
///
/// # Example
/// ```
/// use logic::{Formula, LinearExpr, Solver, Var};
/// let x = LinearExpr::var(Var::new("x"));
/// let f = Formula::and(vec![
///     Formula::gt(x.clone(), LinearExpr::constant(3)),
///     Formula::lt(x, LinearExpr::constant(10)),
/// ]);
/// let result = Solver::default().check(&f);
/// let m = result.model().expect("satisfiable");
/// let v = m.get(&Var::new("x")).unwrap();
/// assert!(v > 3 && v < 10);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct Solver;

/// The largest DNF, in cubes, the solver expands a formula into.
const MAX_CUBES: usize = 4096;

impl Solver {
    /// Creates a solver.
    pub fn new() -> Self {
        Solver
    }

    /// Checks satisfiability of `formula`.
    pub fn check(&self, formula: &Formula) -> SolverResult {
        let vars: Vec<Var> = formula.free_vars().into_iter().collect();
        let index: BTreeMap<Var, usize> = vars
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();

        let Some(cubes) = formula.to_dnf(MAX_CUBES) else {
            return SolverResult::Unknown;
        };
        if cubes.is_empty() {
            return SolverResult::Unsat;
        }

        let mut saw_unknown = false;
        for cube in &cubes {
            if stop_requested() {
                return SolverResult::Unknown;
            }
            match self.check_cube(cube, &vars, &index) {
                IlpResult::Sat(point) => {
                    let model = vars
                        .iter()
                        .cloned()
                        .zip(point.iter().copied())
                        .collect::<Model>();
                    debug_assert!(
                        formula.eval(&model),
                        "internal error: model {model} does not satisfy {formula}"
                    );
                    return SolverResult::Sat(model);
                }
                IlpResult::Unsat => {}
                IlpResult::Unknown => saw_unknown = true,
            }
        }
        if saw_unknown {
            SolverResult::Unknown
        } else {
            SolverResult::Unsat
        }
    }

    /// Convenience wrapper: `true` iff the formula is provably unsatisfiable.
    pub fn is_unsat(&self, formula: &Formula) -> bool {
        self.check(formula).is_unsat()
    }

    /// Convenience wrapper: `true` iff the formula is provably valid
    /// (its negation is unsatisfiable).
    pub fn is_valid(&self, formula: &Formula) -> bool {
        self.is_unsat(&Formula::not(formula.clone()))
    }

    fn check_cube(&self, cube: &[Atom], vars: &[Var], index: &BTreeMap<Var, usize>) -> IlpResult {
        match cube_problem(cube, vars, index) {
            Some(problem) => problem.solve(),
            None => IlpResult::Unknown,
        }
    }
}

/// A cube as an integer feasibility problem; `None` when a right-hand side
/// overflows `i64`.
fn cube_problem(cube: &[Atom], vars: &[Var], index: &BTreeMap<Var, usize>) -> Option<IlpProblem> {
    let mut problem = IlpProblem::new(vars.len());
    for atom in cube {
        let diff = atom.lhs.clone().checked_sub(atom.rhs.clone())?;
        let mut coeffs = vec![0i64; vars.len()];
        for (v, c) in diff.terms() {
            coeffs[index[v]] = c;
        }
        // diff REL 0  ⟺  coeffs·x REL -constant
        let bound = diff.constant_part().checked_neg()?;
        let (rel, rhs) = match atom.rel {
            Rel::Eq => (LpRel::Eq, bound),
            Rel::Le => (LpRel::Le, bound),
            Rel::Lt => (LpRel::Le, bound.checked_sub(1)?),
            Rel::Ge => (LpRel::Ge, bound),
            Rel::Gt => (LpRel::Ge, bound.checked_add(1)?),
            Rel::Ne => unreachable!("disequalities are split during DNF conversion"),
        };
        problem.add(Constraint::new(coeffs, rel, rhs));
    }
    Some(problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;

    fn var(name: &str) -> LinearExpr {
        LinearExpr::var(Var::new(name))
    }

    #[test]
    fn trivial_formulas() {
        let s = Solver::default();
        assert!(s.check(&Formula::True).is_sat());
        assert_eq!(s.check(&Formula::False), SolverResult::Unsat);
    }

    #[test]
    fn sat_with_model() {
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::ge(var("x"), LinearExpr::constant(2)),
            Formula::le(var("x"), LinearExpr::constant(2)),
        ]);
        match s.check(&f) {
            SolverResult::Sat(m) => assert_eq!(m.get(&Var::new("x")), Some(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overflowing_right_hand_sides_are_unknown() {
        let s = Solver::default();
        // x < i64::MIN: the difference x − i64::MIN overflows
        let below = Formula::lt(var("x"), LinearExpr::constant(i64::MIN));
        assert_eq!(s.check(&below), SolverResult::Unknown);
        // x > i64::MAX: the tightened bound i64::MAX + 1 overflows
        let above = Formula::gt(var("x"), LinearExpr::constant(i64::MAX));
        assert_eq!(s.check(&above), SolverResult::Unknown);
    }

    #[test]
    fn unsat_conjunction() {
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::gt(var("x"), LinearExpr::constant(5)),
            Formula::lt(var("x"), LinearExpr::constant(3)),
        ]);
        assert_eq!(s.check(&f), SolverResult::Unsat);
    }

    #[test]
    fn disjunction_finds_the_sat_branch() {
        let s = Solver::default();
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::gt(var("x"), LinearExpr::constant(5)),
                Formula::lt(var("x"), LinearExpr::constant(3)),
            ]),
            Formula::eq(var("x"), LinearExpr::constant(9)),
        ]);
        match s.check(&f) {
            SolverResult::Sat(m) => assert_eq!(m.get(&Var::new("x")), Some(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_equation_four() {
        // ∃λ. i1 = 1 ∧ o1 = 0 + 3λ ∧ λ ≥ 0 ∧ o1 = 2·i1 + 2  — unsat
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::eq(var("i1"), LinearExpr::constant(1)),
            Formula::eq(var("o1"), var("lam").scale(3)),
            Formula::ge(var("lam"), LinearExpr::constant(0)),
            Formula::eq(var("o1"), var("i1").scale(2) + LinearExpr::constant(2)),
        ]);
        assert_eq!(s.check(&f), SolverResult::Unsat);
    }

    #[test]
    fn paper_equation_four_satisfiable_variant() {
        // with i1 = 2 the output 2·2+2 = 6 = 3·2 is producible
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::eq(var("i1"), LinearExpr::constant(2)),
            Formula::eq(var("o1"), var("lam").scale(3)),
            Formula::ge(var("lam"), LinearExpr::constant(0)),
            Formula::eq(var("o1"), var("i1").scale(2) + LinearExpr::constant(2)),
        ]);
        match s.check(&f) {
            SolverResult::Sat(m) => {
                assert_eq!(m.get(&Var::new("o1")), Some(6));
                assert_eq!(m.get(&Var::new("lam")), Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_and_validity() {
        let s = Solver::default();
        // x ≤ 3 ∨ x > 3 is valid
        let f = Formula::or(vec![
            Formula::le(var("x"), LinearExpr::constant(3)),
            Formula::gt(var("x"), LinearExpr::constant(3)),
        ]);
        assert!(s.is_valid(&f));
        // x ≤ 3 alone is not valid
        assert!(!s.is_valid(&Formula::le(var("x"), LinearExpr::constant(3))));
    }

    #[test]
    fn disequality_handling() {
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::ge(var("x"), LinearExpr::constant(0)),
            Formula::le(var("x"), LinearExpr::constant(1)),
            Formula::ne(var("x"), LinearExpr::constant(0)),
            Formula::ne(var("x"), LinearExpr::constant(1)),
        ]);
        assert_eq!(s.check(&f), SolverResult::Unsat);
    }

    #[test]
    fn model_eval_round_trip() {
        let s = Solver::default();
        let f = Formula::and(vec![
            Formula::eq(var("x") + var("y"), LinearExpr::constant(10)),
            Formula::ge(var("x") - var("y"), LinearExpr::constant(4)),
        ]);
        match s.check(&f) {
            SolverResult::Sat(m) => assert!(f.eval(&m)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
