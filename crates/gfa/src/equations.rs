//! Polynomial equation systems over a semiring.

use crate::semiring::Semiring;
use logic::stop_requested;
use std::fmt;

/// A monomial `coefficient ⊗ X_{v₁} ⊗ … ⊗ X_{vₖ}` in the right-hand side of
/// an equation. The variable list is a multiset (repetitions allowed).
#[derive(Clone, Debug, PartialEq)]
pub struct Monomial<E> {
    /// The constant coefficient of the monomial.
    pub coefficient: E,
    /// Indices of the variables multiplied into the monomial.
    pub vars: Vec<usize>,
}

impl<E> Monomial<E> {
    /// A constant monomial (no variables).
    pub fn constant(coefficient: E) -> Self {
        Monomial {
            coefficient,
            vars: Vec::new(),
        }
    }

    /// A monomial `coefficient ⊗ Πᵢ X_{vars[i]}`.
    pub fn new(coefficient: E, vars: Vec<usize>) -> Self {
        Monomial { coefficient, vars }
    }

    /// The polynomial degree of the monomial.
    pub fn degree(&self) -> usize {
        self.vars.len()
    }

    /// Evaluates the monomial under a valuation of the variables.
    pub fn eval<S: Semiring<Elem = E>>(&self, semiring: &S, valuation: &[E]) -> E
    where
        E: Clone + PartialEq + fmt::Debug,
    {
        let mut acc = self.coefficient.clone();
        for &v in &self.vars {
            acc = semiring.extend(&acc, &valuation[v]);
        }
        acc
    }
}

/// A system of polynomial equations `Xᵢ = ⊕ⱼ mᵢⱼ` over a semiring, one
/// equation per variable (Eqn. (12) / Eqn. (25) of the paper).
///
/// # Example
/// ```
/// use gfa::{EquationSystem, Monomial, SemiLinearSemiring, Semiring};
/// use semilinear::{IntVec, SemiLinearSet};
/// // X = {3} ⊗ X  ⊕  {0}      (Eqn. (3) of the paper with E = ⟨1⟩)
/// let sr = SemiLinearSemiring::new(1);
/// let mut sys = EquationSystem::new(1);
/// sys.add_monomial(0, Monomial::new(SemiLinearSet::singleton(IntVec::from(vec![3])), vec![0]));
/// sys.add_monomial(0, Monomial::constant(SemiLinearSet::singleton(IntVec::from(vec![0]))));
/// let solution = gfa::newton::solve(&sr, &sys);
/// assert!(solution.values[0].contains(&IntVec::from(vec![9])));
/// assert!(!solution.values[0].contains(&IntVec::from(vec![4])));
/// ```
#[derive(Clone, Debug)]
pub struct EquationSystem<E> {
    num_vars: usize,
    rhs: Vec<Vec<Monomial<E>>>,
}

impl<E: Clone + PartialEq + fmt::Debug> EquationSystem<E> {
    /// Creates a system with `num_vars` variables and empty right-hand sides
    /// (an empty combine denotes `0`).
    pub fn new(num_vars: usize) -> Self {
        EquationSystem {
            num_vars,
            rhs: vec![Vec::new(); num_vars],
        }
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a monomial to the right-hand side of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` or any variable inside the monomial is out of range.
    pub fn add_monomial(&mut self, var: usize, monomial: Monomial<E>) {
        assert!(var < self.num_vars, "equation variable out of range");
        assert!(
            monomial.vars.iter().all(|&v| v < self.num_vars),
            "monomial variable out of range"
        );
        self.rhs[var].push(monomial);
    }

    /// The monomials of variable `var`'s right-hand side.
    pub fn monomials(&self, var: usize) -> &[Monomial<E>] {
        &self.rhs[var]
    }

    /// The maximal degree of any monomial (0 for an all-constant system).
    pub fn degree(&self) -> usize {
        self.rhs
            .iter()
            .flat_map(|ms| ms.iter().map(|m| m.degree()))
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the right-hand side of variable `var` under a valuation.
    ///
    /// The [`logic`] stop hook is polled before every monomial; once it
    /// fires the remaining monomials are left out, so the result is an
    /// under-approximation a caller must not trust without polling.
    pub fn eval_rhs<S: Semiring<Elem = E>>(&self, semiring: &S, var: usize, valuation: &[E]) -> E {
        let mut acc = semiring.zero();
        for m in &self.rhs[var] {
            if stop_requested() {
                break;
            }
            let v = m.eval(semiring, valuation);
            acc = semiring.combine(&acc, &v);
        }
        semiring.normalize(acc)
    }

    /// Evaluates all right-hand sides (one application of `F`; cut short
    /// like [`EquationSystem::eval_rhs`] once the stop hook fires).
    pub fn eval_all<S: Semiring<Elem = E>>(&self, semiring: &S, valuation: &[E]) -> Vec<E> {
        (0..self.num_vars)
            .map(|v| self.eval_rhs(semiring, v, valuation))
            .collect()
    }

    /// The variable-dependence edges: `(x, y)` when `y` occurs in the
    /// right-hand side of `x` (i.e. `x` depends on `y`).
    pub fn dependencies(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (x, ms) in self.rhs.iter().enumerate() {
            for m in ms {
                for &y in &m.vars {
                    if !out.contains(&(x, y)) {
                        out.push((x, y));
                    }
                }
            }
        }
        out
    }

    /// Restricts the system to the variables of `keep`, substituting the
    /// variables *not* in `keep` by the constant values given in `fixed`
    /// (which must cover them). Returns the restricted system together with
    /// the mapping from new variable indices to original ones.
    pub fn restrict<S: Semiring<Elem = E>>(
        &self,
        semiring: &S,
        keep: &[usize],
        fixed: &[Option<E>],
    ) -> (EquationSystem<E>, Vec<usize>) {
        let mut index_of = vec![None; self.num_vars];
        for (new, &old) in keep.iter().enumerate() {
            index_of[old] = Some(new);
        }
        let mut sys = EquationSystem::new(keep.len());
        for (new, &old) in keep.iter().enumerate() {
            for m in &self.rhs[old] {
                let mut coefficient = m.coefficient.clone();
                let mut vars = Vec::new();
                for &v in &m.vars {
                    match index_of[v] {
                        Some(nv) => vars.push(nv),
                        None => {
                            let value = fixed[v]
                                .as_ref()
                                .expect("variable outside the kept set must have a fixed value");
                            coefficient = semiring.extend(&coefficient, value);
                        }
                    }
                }
                sys.add_monomial(new, Monomial::new(coefficient, vars));
            }
        }
        (sys, keep.to_vec())
    }
}

/// The result of an equation solve.
#[derive(Clone, Debug)]
pub struct Solution<E> {
    /// The computed value for each variable.
    pub values: Vec<E>,
    /// Number of outer iterations performed by the solver.
    pub iterations: usize,
    /// Whether the solver certifies this to be the least fixed point.
    pub exact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::SemiLinearSemiring;
    use semilinear::{IntVec, SemiLinearSet};

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn monomial_evaluation() {
        let sr = SemiLinearSemiring::new(1);
        let m = Monomial::new(single(&[2]), vec![0, 0]);
        assert_eq!(m.degree(), 2);
        let valuation = vec![single(&[5])];
        // 2 + 5 + 5 = 12
        assert!(m.eval(&sr, &valuation).contains(&IntVec::from(vec![12])));
    }

    #[test]
    fn rhs_evaluation_and_dependencies() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(2);
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        sys.add_monomial(1, Monomial::constant(single(&[7])));
        let v0 = sys.eval_rhs(&sr, 0, &[sr.zero(), single(&[7])]);
        assert!(v0.contains(&IntVec::from(vec![8])));
        assert!(v0.contains(&IntVec::from(vec![0])));
        assert_eq!(sys.dependencies(), vec![(0, 1)]);
        assert_eq!(sys.degree(), 1);
    }

    #[test]
    fn restriction_folds_fixed_variables() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(2);
        // X0 = {1} ⊗ X1 ⊗ X0 ⊕ {0},  X1 = {5}
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1, 0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        sys.add_monomial(1, Monomial::constant(single(&[5])));
        let fixed = vec![None, Some(single(&[5]))];
        let (restricted, mapping) = sys.restrict(&sr, &[0], &fixed);
        assert_eq!(mapping, vec![0]);
        assert_eq!(restricted.num_vars(), 1);
        // the first monomial's coefficient has become {1+5} = {6}
        assert!(restricted.monomials(0)[0]
            .coefficient
            .contains(&IntVec::from(vec![6])));
        assert_eq!(restricted.monomials(0)[0].vars, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_variable_panics() {
        let mut sys: EquationSystem<SemiLinearSet> = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![3]));
    }
}
