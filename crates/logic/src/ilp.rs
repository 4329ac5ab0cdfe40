//! Integer feasibility of conjunctions of linear constraints.
//!
//! This module implements the per-cube decision step of the
//! [`Solver`](crate::Solver): given a conjunction of integer linear
//! constraints, decide whether an integer solution exists and produce one if
//! so. The algorithm is
//!
//! 1. normalisation (strict inequalities tightened, GCD tests),
//! 2. exact elimination of equalities with a unit-coefficient variable,
//! 3. branch-and-bound over the exact rational simplex relaxation.
//!
//! The branch-and-bound search is budgeted; exceeding the budget — or an
//! [`interruptible`](crate::interruptible) scope's stop hook firing —
//! yields [`IlpResult::Unknown`], which callers treat conservatively.

use crate::interrupt::stop_requested;
use crate::rational::Rational;
use crate::simplex::{LpRel, LpResult, Simplex};

/// A single linear constraint `Σ coeffs[i]·xᵢ REL rhs` over variable indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Coefficients, one per variable (index-based).
    pub coeffs: Vec<i64>,
    /// Relation (only `Le`, `Ge`, `Eq` — strict forms are normalised away).
    pub rel: LpRel,
    /// Right-hand side constant.
    pub rhs: i64,
}

impl Constraint {
    /// Creates a constraint; `coeffs` is indexed by variable number.
    pub fn new(coeffs: Vec<i64>, rel: LpRel, rhs: i64) -> Self {
        Constraint { coeffs, rel, rhs }
    }

    fn is_trivial(&self) -> Option<bool> {
        if self.coeffs.iter().all(|&c| c == 0) {
            Some(match self.rel {
                LpRel::Le => 0 <= self.rhs,
                LpRel::Ge => 0 >= self.rhs,
                LpRel::Eq => self.rhs == 0,
            })
        } else {
            None
        }
    }

    fn eval(&self, point: &[i64]) -> bool {
        let lhs: i64 = self.coeffs.iter().zip(point).map(|(c, v)| c * v).sum();
        match self.rel {
            LpRel::Le => lhs <= self.rhs,
            LpRel::Ge => lhs >= self.rhs,
            LpRel::Eq => lhs == self.rhs,
        }
    }
}

/// Result of an integer feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlpResult {
    /// A satisfying integer point (indexed like the problem's variables).
    Sat(Vec<i64>),
    /// No integer point satisfies the constraints.
    Unsat,
    /// The search budget was exhausted before a decision was reached.
    Unknown,
}

/// An integer feasibility problem: find `x ∈ ℤⁿ` satisfying every constraint.
///
/// # Example
/// ```
/// use logic::{Constraint, IlpProblem, IlpResult, LpRel};
/// // 2x = 1 has no integer solution.
/// let mut p = IlpProblem::new(1);
/// p.add(Constraint::new(vec![2], LpRel::Eq, 1));
/// assert_eq!(p.solve(), IlpResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IlpProblem {
    num_vars: usize,
    constraints: Vec<Constraint>,
    node_budget: usize,
}

/// A recorded substitution `x_var := Σ coeffs[i]·xᵢ + constant` used to
/// reconstruct eliminated variables.
#[derive(Clone, Debug)]
struct Substitution {
    var: usize,
    coeffs: Vec<i64>,
    constant: i64,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a >= 0 {
        a / b
    } else {
        -((-a + b - 1) / b)
    }
}

impl IlpProblem {
    /// Creates an empty problem over `num_vars` integer variables.
    pub fn new(num_vars: usize) -> Self {
        IlpProblem {
            num_vars,
            constraints: Vec::new(),
            node_budget: 4000,
        }
    }

    /// Overrides the branch-and-bound node budget (default 4000).
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget;
        self
    }

    /// Adds a constraint.
    ///
    /// # Panics
    /// Panics if the coefficient vector length differs from the number of
    /// variables.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.coeffs.len(), self.num_vars, "constraint arity mismatch");
        self.constraints.push(c);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Decides integer feasibility.
    pub fn solve(&self) -> IlpResult {
        if stop_requested() {
            return IlpResult::Unknown;
        }
        // Work on a normalised copy: only Le and Eq constraints.
        let mut cons: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            match c.rel {
                LpRel::Le | LpRel::Eq => cons.push(c.clone()),
                LpRel::Ge => cons.push(Constraint::new(
                    c.coeffs.iter().map(|x| -x).collect(),
                    LpRel::Le,
                    -c.rhs,
                )),
            }
        }

        let mut substitutions: Vec<Substitution> = Vec::new();
        match self.preprocess(&mut cons, &mut substitutions) {
            Some(false) => return IlpResult::Unsat,
            Some(true) => {
                // all constraints trivially satisfied — any point works
                let mut point = vec![0i64; self.num_vars];
                Self::apply_substitutions(&mut point, &substitutions);
                return IlpResult::Sat(point);
            }
            None => {}
        }

        match self.branch_and_bound(&cons) {
            IlpResult::Sat(mut point) => {
                Self::apply_substitutions(&mut point, &substitutions);
                debug_assert!(
                    self.constraints.iter().all(|c| c.eval(&point)),
                    "internal error: reconstructed point violates constraints"
                );
                IlpResult::Sat(point)
            }
            other => other,
        }
    }

    /// Simplifies constraints in place. Returns `Some(false)` when a
    /// contradiction is detected, `Some(true)` when all constraints have been
    /// discharged, and `None` otherwise.
    fn preprocess(
        &self,
        cons: &mut Vec<Constraint>,
        substitutions: &mut Vec<Substitution>,
    ) -> Option<bool> {
        loop {
            // constant folding and GCD normalisation
            let mut i = 0;
            while i < cons.len() {
                if let Some(ok) = cons[i].is_trivial() {
                    if ok {
                        cons.swap_remove(i);
                        continue;
                    } else {
                        return Some(false);
                    }
                }
                let g = cons[i]
                    .coeffs
                    .iter()
                    .copied()
                    .filter(|&c| c != 0)
                    .fold(0, gcd);
                if g > 1 {
                    match cons[i].rel {
                        LpRel::Eq => {
                            if cons[i].rhs % g != 0 {
                                return Some(false);
                            }
                            for c in cons[i].coeffs.iter_mut() {
                                *c /= g;
                            }
                            cons[i].rhs /= g;
                        }
                        LpRel::Le => {
                            for c in cons[i].coeffs.iter_mut() {
                                *c /= g;
                            }
                            cons[i].rhs = div_floor(cons[i].rhs, g);
                        }
                        LpRel::Ge => unreachable!("normalised away"),
                    }
                }
                i += 1;
            }

            // eliminate one equality with a unit coefficient, if any
            let target = cons
                .iter()
                .position(|c| c.rel == LpRel::Eq && c.coeffs.iter().any(|&a| a == 1 || a == -1));
            let Some(idx) = target else {
                return if cons.is_empty() { Some(true) } else { None };
            };
            let eq = cons.swap_remove(idx);
            let var = eq
                .coeffs
                .iter()
                .position(|&a| a == 1 || a == -1)
                .expect("unit coefficient present");
            let sign = eq.coeffs[var];
            // sign*x_var + rest = rhs  →  x_var = sign*(rhs - rest)
            let mut sub_coeffs = vec![0i64; self.num_vars];
            for (j, &a) in eq.coeffs.iter().enumerate() {
                if j != var {
                    sub_coeffs[j] = -sign * a;
                }
            }
            let sub_const = sign * eq.rhs;
            // substitute into every remaining constraint
            for c in cons.iter_mut() {
                let factor = c.coeffs[var];
                if factor == 0 {
                    continue;
                }
                c.coeffs[var] = 0;
                for (cj, &sj) in c.coeffs.iter_mut().zip(&sub_coeffs) {
                    *cj += factor * sj;
                }
                c.rhs -= factor * sub_const;
            }
            substitutions.push(Substitution {
                var,
                coeffs: sub_coeffs,
                constant: sub_const,
            });
        }
    }

    fn apply_substitutions(point: &mut [i64], substitutions: &[Substitution]) {
        for sub in substitutions.iter().rev() {
            let mut v = sub.constant;
            for (j, &c) in sub.coeffs.iter().enumerate() {
                v += c * point[j];
            }
            point[sub.var] = v;
        }
    }

    fn branch_and_bound(&self, cons: &[Constraint]) -> IlpResult {
        // Stack of extra bound constraints (var, is_upper, bound).
        #[derive(Clone)]
        struct Node {
            extra: Vec<(usize, bool, i64)>,
        }
        let mut stack = vec![Node { extra: Vec::new() }];
        let mut nodes_used = 0usize;
        let mut hit_budget = false;

        while let Some(node) = stack.pop() {
            nodes_used += 1;
            if nodes_used > self.node_budget || stop_requested() {
                hit_budget = true;
                break;
            }
            let mut lp = Simplex::new(self.num_vars);
            for c in cons {
                let coeffs: Vec<Rational> =
                    c.coeffs.iter().map(|&x| Rational::from_int(x)).collect();
                lp.add_constraint(coeffs, c.rel, Rational::from_int(c.rhs));
            }
            for &(var, is_upper, bound) in &node.extra {
                let mut coeffs = vec![Rational::ZERO; self.num_vars];
                coeffs[var] = Rational::ONE;
                let rel = if is_upper { LpRel::Le } else { LpRel::Ge };
                lp.add_constraint(coeffs, rel, Rational::from_int(bound));
            }
            let point = match lp.maximize(&vec![Rational::ZERO; self.num_vars]) {
                LpResult::Optimal { point, .. } => point,
                LpResult::Infeasible => continue,
                LpResult::Interrupted => {
                    hit_budget = true;
                    break;
                }
                LpResult::Unbounded => unreachable!("zero objective cannot be unbounded"),
            };
            // find a fractional coordinate
            match point.iter().position(|v| !v.is_integer()) {
                None => {
                    let int_point: Vec<i64> = point.iter().map(|v| v.numer() as i64).collect();
                    // The LP vertex satisfies all constraints by construction.
                    return IlpResult::Sat(int_point);
                }
                Some(var) => {
                    let v = point[var];
                    let mut low = node.clone();
                    low.extra.push((var, true, v.floor() as i64));
                    let mut high = node;
                    high.extra.push((var, false, v.ceil() as i64));
                    stack.push(low);
                    stack.push(high);
                }
            }
        }
        if hit_budget {
            IlpResult::Unknown
        } else {
            IlpResult::Unsat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Le, rhs)
    }
    fn ge(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Ge, rhs)
    }
    fn eq(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Eq, rhs)
    }

    #[test]
    fn simple_sat() {
        // x >= 3 ∧ x <= 5
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 3));
        p.add(le(vec![1], 5));
        match p.solve() {
            IlpResult::Sat(point) => assert!((3..=5).contains(&point[0])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 3));
        p.add(le(vec![1], 2));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn parity_unsat_via_gcd() {
        // 2x = 1
        let mut p = IlpProblem::new(1);
        p.add(eq(vec![2], 1));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn lattice_gap_requires_integrality() {
        // 2 ≤ 3x ≤ 2 has a rational solution (2/3) but no integer one.
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![3], 2));
        p.add(le(vec![3], 2));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn equality_elimination_reconstructs_model() {
        // o = 3λ ∧ λ ≥ 0 ∧ o = 6  →  λ = 2, o = 6
        // vars: 0 = o, 1 = λ
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, -3], 0));
        p.add(ge(vec![0, 1], 0));
        p.add(eq(vec![1, 0], 6));
        match p.solve() {
            IlpResult::Sat(point) => {
                assert_eq!(point[0], 6);
                assert_eq!(point[1], 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_running_example_is_unsat() {
        // o = 3λ ∧ λ ≥ 0 ∧ o = 4 (Eqn. (4) of the paper, with i₁ = 1)
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, -3], 0));
        p.add(ge(vec![0, 1], 0));
        p.add(eq(vec![1, 0], 4));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn multi_var_system() {
        // x + y = 10, x - y >= 4, y >= 1  → e.g. x=7,y=3 ... any valid point
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, 1], 10));
        p.add(ge(vec![1, -1], 4));
        p.add(ge(vec![0, 1], 1));
        match p.solve() {
            IlpResult::Sat(pt) => {
                assert_eq!(pt[0] + pt[1], 10);
                assert!(pt[0] - pt[1] >= 4);
                assert!(pt[1] >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_problem_is_sat() {
        let p = IlpProblem::new(3);
        match p.solve() {
            IlpResult::Sat(point) => assert_eq!(point.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trivially_false_constraint() {
        let mut p = IlpProblem::new(1);
        p.add(le(vec![0], -1)); // 0 <= -1
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn unbounded_feasible() {
        // x ≥ 100 with no upper bound
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 100));
        match p.solve() {
            IlpResult::Sat(point) => assert!(point[0] >= 100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn brute_force_agreement_on_small_boxes() {
        // Compare against brute force on a handful of deterministic systems.
        let systems: Vec<Vec<Constraint>> = vec![
            vec![
                ge(vec![1, 0], -3),
                le(vec![1, 0], 3),
                ge(vec![0, 1], -3),
                le(vec![0, 1], 3),
                eq(vec![2, 3], 1),
            ],
            vec![
                ge(vec![1, 0], -3),
                le(vec![1, 0], 3),
                ge(vec![0, 1], -3),
                le(vec![0, 1], 3),
                eq(vec![2, 4], 7),
            ],
            vec![
                ge(vec![1, 0], 0),
                le(vec![1, 0], 4),
                ge(vec![0, 1], 0),
                le(vec![0, 1], 4),
                le(vec![1, 1], 2),
                ge(vec![1, 1], 2),
            ],
            vec![
                ge(vec![1, 0], -2),
                le(vec![1, 0], 2),
                ge(vec![0, 1], -2),
                le(vec![0, 1], 2),
                ge(vec![3, -2], 5),
            ],
        ];
        for cons in systems {
            let mut p = IlpProblem::new(2);
            for c in &cons {
                p.add(c.clone());
            }
            let brute = (-5..=5).any(|x| (-5..=5).any(|y| cons.iter().all(|c| c.eval(&[x, y]))));
            match p.solve() {
                IlpResult::Sat(pt) => {
                    assert!(
                        cons.iter().all(|c| c.eval(&pt)),
                        "returned point must satisfy system"
                    );
                    assert!(
                        brute,
                        "solver found a point but brute force (within box) disagrees: {cons:?}"
                    );
                }
                IlpResult::Unsat => assert!(
                    !brute,
                    "solver said unsat but brute force found a point: {cons:?}"
                ),
                IlpResult::Unknown => panic!("budget should not be hit on tiny systems"),
            }
        }
    }
}
