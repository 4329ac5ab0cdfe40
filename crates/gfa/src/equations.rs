//! Polynomial equation systems over semi-linear sets.

use logic::stop_requested;
use semilinear::SemiLinearSet;

/// The subsumption pruning of naySL (§7) when `prune` is set; the identity
/// otherwise. Either way the denoted set is unchanged.
pub(crate) fn normalize(set: SemiLinearSet, prune: bool) -> SemiLinearSet {
    if prune {
        set.prune()
    } else {
        set
    }
}

/// A monomial `coefficient ⊗ X_{v₁} ⊗ … ⊗ X_{vₖ}` in the right-hand side of
/// an equation. The variable list is a multiset (repetitions allowed).
#[derive(Clone, Debug, PartialEq)]
pub struct Monomial {
    /// The constant coefficient of the monomial.
    pub coefficient: SemiLinearSet,
    /// Indices of the variables multiplied into the monomial.
    pub vars: Vec<usize>,
}

impl Monomial {
    /// A constant monomial (no variables).
    pub fn constant(coefficient: SemiLinearSet) -> Self {
        Monomial {
            coefficient,
            vars: Vec::new(),
        }
    }

    /// A monomial `coefficient ⊗ Πᵢ X_{vars[i]}`.
    pub fn new(coefficient: SemiLinearSet, vars: Vec<usize>) -> Self {
        Monomial { coefficient, vars }
    }

    /// Evaluates the monomial under a valuation of the variables.
    pub fn eval(&self, valuation: &[SemiLinearSet]) -> SemiLinearSet {
        let mut acc = self.coefficient.clone();
        for &v in &self.vars {
            acc = acc.extend(&valuation[v]);
        }
        acc
    }
}

/// A system of polynomial equations `Xᵢ = ⊕ⱼ mᵢⱼ` over semi-linear sets, one
/// equation per variable (Eqn. (12) / Eqn. (25) of the paper).
///
/// # Example
/// ```
/// use gfa::{EquationSystem, Monomial};
/// use semilinear::{IntVec, SemiLinearSet};
/// // X = {3} ⊗ X  ⊕  {0}      (Eqn. (3) of the paper with E = ⟨1⟩)
/// let mut sys = EquationSystem::new(1);
/// sys.add_monomial(0, Monomial::new(SemiLinearSet::singleton(IntVec::from(vec![3])), vec![0]));
/// sys.add_monomial(0, Monomial::constant(SemiLinearSet::singleton(IntVec::from(vec![0]))));
/// // one example, with pruning
/// let solution = gfa::newton::solve(&sys, 1, true);
/// assert!(solution.values[0].contains(&IntVec::from(vec![9])));
/// assert!(!solution.values[0].contains(&IntVec::from(vec![4])));
/// ```
#[derive(Clone, Debug)]
pub struct EquationSystem {
    num_vars: usize,
    rhs: Vec<Vec<Monomial>>,
}

impl EquationSystem {
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
    pub fn add_monomial(&mut self, var: usize, monomial: Monomial) {
        assert!(var < self.num_vars, "equation variable out of range");
        assert!(
            monomial.vars.iter().all(|&v| v < self.num_vars),
            "monomial variable out of range"
        );
        self.rhs[var].push(monomial);
    }

    /// The monomials of variable `var`'s right-hand side.
    pub fn monomials(&self, var: usize) -> &[Monomial] {
        &self.rhs[var]
    }

    /// Evaluates the right-hand side of variable `var` under a valuation:
    /// the union of its monomials' values, pruned when `prune` is set.
    ///
    /// The [`logic`] stop hook is polled before every monomial; once it
    /// fires the remaining monomials are left out, so the result is an
    /// under-approximation a caller must not trust without polling.
    pub fn eval_rhs(&self, var: usize, valuation: &[SemiLinearSet], prune: bool) -> SemiLinearSet {
        let mut values = Vec::new();
        for m in &self.rhs[var] {
            if stop_requested() {
                break;
            }
            values.push(m.eval(valuation));
        }
        let union =
            SemiLinearSet::from_linear_sets(values.iter().flat_map(|v| v.linear_sets()).cloned());
        normalize(union, prune)
    }

    /// Evaluates all right-hand sides (one application of `F`; cut short
    /// like [`EquationSystem::eval_rhs`] once the stop hook fires).
    pub fn eval_all(&self, valuation: &[SemiLinearSet], prune: bool) -> Vec<SemiLinearSet> {
        (0..self.num_vars)
            .map(|v| self.eval_rhs(v, valuation, prune))
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
    pub fn restrict(
        &self,
        keep: &[usize],
        fixed: &[Option<SemiLinearSet>],
    ) -> (EquationSystem, Vec<usize>) {
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
                            coefficient = coefficient.extend(value);
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
pub struct Solution {
    /// The computed value for each variable.
    pub values: Vec<SemiLinearSet>,
    /// Number of outer iterations performed by the solver.
    pub iterations: usize,
    /// Whether the solver certifies this to be the least fixed point.
    pub exact: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::{IntVec, LinearSet};

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn monomial_evaluation() {
        let m = Monomial::new(single(&[2]), vec![0, 0]);
        let valuation = vec![single(&[5])];
        // 2 + 5 + 5 = 12
        assert!(m.eval(&valuation).contains(&IntVec::from(vec![12])));
    }

    #[test]
    fn rhs_evaluation_and_dependencies() {
        let mut sys = EquationSystem::new(2);
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        sys.add_monomial(1, Monomial::constant(single(&[7])));
        let v0 = sys.eval_rhs(0, &[SemiLinearSet::zero(), single(&[7])], true);
        assert!(v0.contains(&IntVec::from(vec![8])));
        assert!(v0.contains(&IntVec::from(vec![0])));
        assert_eq!(sys.dependencies(), vec![(0, 1)]);
    }

    #[test]
    fn normalization_prunes() {
        // X = ⟨(0,0), {(1,1)}⟩ ⊕ ⟨(2,2), {(1,1)}⟩: the second linear set is
        // subsumed by the first.
        let diagonal = |base: i64| {
            SemiLinearSet::from_linear_sets([LinearSet::new(
                IntVec::from(vec![base, base]),
                vec![IntVec::from(vec![1, 1])],
            )])
        };
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::constant(diagonal(0)));
        sys.add_monomial(0, Monomial::constant(diagonal(2)));
        assert_eq!(sys.eval_rhs(0, &[SemiLinearSet::zero()], true), diagonal(0));
        let unpruned = sys.eval_rhs(0, &[SemiLinearSet::zero()], false);
        assert_eq!(unpruned.linear_sets().len(), 2);
    }

    #[test]
    fn restriction_folds_fixed_variables() {
        let mut sys = EquationSystem::new(2);
        // X0 = {1} ⊗ X1 ⊗ X0 ⊕ {0},  X1 = {5}
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1, 0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        sys.add_monomial(1, Monomial::constant(single(&[5])));
        let fixed = vec![None, Some(single(&[5]))];
        let (restricted, mapping) = sys.restrict(&[0], &fixed);
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
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![3]));
    }
}
