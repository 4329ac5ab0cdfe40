//! Quantifier-free LIA formulas.

use crate::expr::{LinearExpr, Var};
use crate::interrupt::stop_requested;
use crate::model::Model;
use std::collections::BTreeSet;
use std::fmt;

/// How many DNF cubes the expansion builds between two polls of the stop
/// hook: often enough to exit within a few milliseconds, rarely enough to
/// cost nothing measurable on small formulas.
const STOP_POLL_CUBES: usize = 256;

/// A comparison relation between two linear expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rel {
    /// Equality `=`.
    Eq,
    /// Disequality `≠`.
    Ne,
    /// Less-or-equal `≤`.
    Le,
    /// Strictly-less `<`.
    Lt,
    /// Greater-or-equal `≥`.
    Ge,
    /// Strictly-greater `>`.
    Gt,
}

impl Rel {
    /// The relation obtained by logical negation (`¬(a ≤ b)` is `a > b`).
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Le => Rel::Gt,
            Rel::Lt => Rel::Ge,
            Rel::Ge => Rel::Lt,
            Rel::Gt => Rel::Le,
        }
    }

    /// Evaluates the relation on two integers.
    pub fn eval<T: Ord>(self, a: T, b: T) -> bool {
        match self {
            Rel::Eq => a == b,
            Rel::Ne => a != b,
            Rel::Le => a <= b,
            Rel::Lt => a < b,
            Rel::Ge => a >= b,
            Rel::Gt => a > b,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Eq => "=",
            Rel::Ne => "!=",
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// An atomic constraint `lhs REL rhs` over linear integer expressions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left-hand side.
    pub lhs: LinearExpr,
    /// Comparison relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: LinearExpr,
}

impl Atom {
    /// Creates a new atom.
    pub fn new(lhs: LinearExpr, rel: Rel, rhs: LinearExpr) -> Self {
        Atom { lhs, rel, rhs }
    }

    /// The atom with the relation negated.
    pub fn negate(&self) -> Atom {
        Atom {
            lhs: self.lhs.clone(),
            rel: self.rel.negate(),
            rhs: self.rhs.clone(),
        }
    }

    /// Evaluates the atom under a model (missing variables read as 0);
    /// see [`Atom::eval_with`].
    pub fn eval(&self, model: &Model) -> bool {
        self.eval_with(&|v| model.get(v)) == Some(true)
    }

    /// Evaluates the atom exactly, over ℤ, under the assignment `lookup`
    /// (missing variables read as 0); `None` when a side leaves i128
    /// ([`LinearExpr::eval_with`]).
    pub fn eval_with(&self, lookup: &impl Fn(&Var) -> Option<i64>) -> Option<bool> {
        let a = self.lhs.eval_with(lookup)?;
        let b = self.rhs.eval_with(lookup)?;
        Some(self.rel.eval(a, b))
    }

    /// `lhs - rhs` as a single expression (so the atom reads `diff REL 0`).
    pub fn difference(&self) -> LinearExpr {
        self.lhs.clone() - self.rhs.clone()
    }

    /// Substitutes a variable in both sides.
    pub fn substitute(&self, var: &Var, by: &LinearExpr) -> Atom {
        Atom {
            lhs: self.lhs.substitute(var, by),
            rel: self.rel,
            rhs: self.rhs.substitute(var, by),
        }
    }

    /// If both sides are constant, evaluates the atom to a Boolean.
    pub fn const_eval(&self) -> Option<bool> {
        if self.lhs.is_constant() && self.rhs.is_constant() {
            Some(
                self.rel
                    .eval(self.lhs.constant_part(), self.rhs.constant_part()),
            )
        } else {
            None
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel, self.rhs)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel, self.rhs)
    }
}

/// A quantifier-free LIA formula.
///
/// Formulas are Boolean combinations of [`Atom`]s. Construction helpers keep
/// formulas lightly simplified (flattening of nested conjunctions and
/// disjunctions, constant folding of `True`/`False`).
///
/// # Example
/// ```
/// use logic::{Formula, LinearExpr, Var};
/// let x = LinearExpr::var(Var::new("x"));
/// let f = Formula::or(vec![
///     Formula::lt(x.clone(), LinearExpr::constant(0)),
///     Formula::ge(x, LinearExpr::constant(0)),
/// ]);
/// assert_eq!(f.atoms().count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// An atomic linear constraint.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Builds an atom `lhs = rhs`.
    pub fn eq(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Eq, rhs.into()))
    }
    /// Builds an atom `lhs ≠ rhs`.
    pub fn ne(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Ne, rhs.into()))
    }
    /// Builds an atom `lhs ≤ rhs`.
    pub fn le(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Le, rhs.into()))
    }
    /// Builds an atom `lhs < rhs`.
    pub fn lt(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Lt, rhs.into()))
    }
    /// Builds an atom `lhs ≥ rhs`.
    pub fn ge(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Ge, rhs.into()))
    }
    /// Builds an atom `lhs > rhs`.
    pub fn gt(lhs: impl Into<LinearExpr>, rhs: impl Into<LinearExpr>) -> Formula {
        Formula::Atom(Atom::new(lhs.into(), Rel::Gt, rhs.into()))
    }

    /// N-ary conjunction with flattening and constant folding.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// N-ary disjunction with flattening and constant folding.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Logical negation with constant folding.
    // `not` is a constructor taking the formula by value, like `and`/`or`
    // above, not a candidate for the `std::ops::Not` trait.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Implication `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![Formula::not(a), b])
    }

    /// Bi-implication `a ↔ b`.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![
            Formula::and(vec![a.clone(), b.clone()]),
            Formula::and(vec![Formula::not(a), Formula::not(b)]),
        ])
    }

    /// If-then-else over formulas: `(c ∧ t) ∨ (¬c ∧ e)`.
    pub fn ite(c: Formula, t: Formula, e: Formula) -> Formula {
        Formula::or(vec![
            Formula::and(vec![c.clone(), t]),
            Formula::and(vec![Formula::not(c), e]),
        ])
    }

    /// All atoms occurring in the formula, in depth-first order.
    pub fn atoms(&self) -> Box<dyn Iterator<Item = &Atom> + '_> {
        match self {
            Formula::True | Formula::False => Box::new(std::iter::empty()),
            Formula::Atom(a) => Box::new(std::iter::once(a)),
            Formula::Not(f) => f.atoms(),
            Formula::And(fs) | Formula::Or(fs) => Box::new(fs.iter().flat_map(|f| f.atoms())),
        }
    }

    /// The set of free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for a in self.atoms() {
            out.extend(a.lhs.vars().cloned());
            out.extend(a.rhs.vars().cloned());
        }
        out
    }

    /// `true` iff the formula holds under a model (missing variables read
    /// as 0); see [`Formula::eval_with`].
    pub fn eval(&self, model: &Model) -> bool {
        self.eval_with(&|v| model.get(v)) == Some(true)
    }

    /// Evaluates the formula exactly, over ℤ, under the assignment
    /// `lookup` (missing variables read as 0), left to right with
    /// short-circuit `∧`/`∨`. `None` when an atom it reaches cannot be
    /// evaluated ([`Atom::eval_with`]); a caller asking whether the formula
    /// holds reads that as "does not hold".
    pub fn eval_with(&self, lookup: &impl Fn(&Var) -> Option<i64>) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => a.eval_with(lookup),
            Formula::Not(f) => f.eval_with(lookup).map(|b| !b),
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval_with(lookup)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval_with(lookup)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }

    /// Substitutes a variable by a linear expression everywhere.
    pub fn substitute(&self, var: &Var, by: &LinearExpr) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(a.substitute(var, by)),
            Formula::Not(f) => Formula::not(f.substitute(var, by)),
            Formula::And(fs) => Formula::and(fs.iter().map(|f| f.substitute(var, by))),
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.substitute(var, by))),
        }
    }

    /// Negation normal form: negations pushed to atoms and eliminated by
    /// flipping relations.
    pub fn to_nnf(&self) -> Formula {
        self.nnf(false)
    }

    fn nnf(&self, negate: bool) -> Formula {
        match self {
            Formula::True => {
                if negate {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Formula::False => {
                if negate {
                    Formula::True
                } else {
                    Formula::False
                }
            }
            Formula::Atom(a) => {
                let a = if negate { a.negate() } else { a.clone() };
                match a.const_eval() {
                    Some(true) => Formula::True,
                    Some(false) => Formula::False,
                    None => Formula::Atom(a),
                }
            }
            Formula::Not(f) => f.nnf(!negate),
            Formula::And(fs) => {
                if negate {
                    Formula::or(fs.iter().map(|f| f.nnf(true)))
                } else {
                    Formula::and(fs.iter().map(|f| f.nnf(false)))
                }
            }
            Formula::Or(fs) => {
                if negate {
                    Formula::and(fs.iter().map(|f| f.nnf(true)))
                } else {
                    Formula::or(fs.iter().map(|f| f.nnf(false)))
                }
            }
        }
    }

    /// Disjunctive normal form: a vector of cubes, each cube a vector of
    /// atoms. The formula is satisfiable iff some cube is.
    ///
    /// `Ne` atoms are split into `<` and `>` so every returned atom is one of
    /// `=, ≤, <, ≥, >`.
    ///
    /// The expansion is capped at `max_cubes`; if exceeded — or if an
    /// [`interruptible`](crate::interruptible) scope's stop hook fires —
    /// `None` is returned and the caller should fall back to a different
    /// strategy.
    pub fn to_dnf(&self, max_cubes: usize) -> Option<Vec<Vec<Atom>>> {
        let nnf = self.to_nnf();
        let cubes = nnf.dnf_rec(max_cubes)?;
        // split disequalities
        let mut out = Vec::new();
        for (i, cube) in cubes.into_iter().enumerate() {
            if i % STOP_POLL_CUBES == STOP_POLL_CUBES - 1 && stop_requested() {
                return None;
            }
            let mut expanded = vec![Vec::new()];
            for atom in cube {
                if atom.rel == Rel::Ne {
                    let lt = Atom::new(atom.lhs.clone(), Rel::Lt, atom.rhs.clone());
                    let gt = Atom::new(atom.lhs.clone(), Rel::Gt, atom.rhs.clone());
                    let mut next = Vec::with_capacity(expanded.len() * 2);
                    for e in &expanded {
                        let mut a = e.clone();
                        a.push(lt.clone());
                        next.push(a);
                        let mut b = e.clone();
                        b.push(gt.clone());
                        next.push(b);
                    }
                    expanded = next;
                    if expanded.len() > max_cubes {
                        return None;
                    }
                } else {
                    for e in &mut expanded {
                        e.push(atom.clone());
                    }
                }
            }
            out.extend(expanded);
            if out.len() > max_cubes {
                return None;
            }
        }
        Some(out)
    }

    fn dnf_rec(&self, max_cubes: usize) -> Option<Vec<Vec<Atom>>> {
        match self {
            Formula::True => Some(vec![Vec::new()]),
            Formula::False => Some(Vec::new()),
            Formula::Atom(a) => Some(vec![vec![a.clone()]]),
            Formula::Not(_) => unreachable!("negations eliminated by NNF"),
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    out.extend(f.dnf_rec(max_cubes)?);
                    if out.len() > max_cubes {
                        return None;
                    }
                }
                Some(out)
            }
            Formula::And(fs) => {
                let mut out: Vec<Vec<Atom>> = vec![Vec::new()];
                for f in fs {
                    let sub = f.dnf_rec(max_cubes)?;
                    let mut next = Vec::new();
                    for cube in &out {
                        for s in &sub {
                            let mut merged = cube.clone();
                            merged.extend(s.iter().cloned());
                            next.push(merged);
                            if next.len() > max_cubes
                                || (next.len() % STOP_POLL_CUBES == 0 && stop_requested())
                            {
                                return None;
                            }
                        }
                    }
                    out = next;
                }
                Some(out)
            }
        }
    }

    /// A crude size metric: number of atoms plus connectives, used by tests
    /// and diagnostics.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(|f| f.size()).sum::<usize>(),
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(inner) => write!(f, "!({inner})"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, p) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, p) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn x() -> LinearExpr {
        LinearExpr::var(Var::new("x"))
    }
    fn y() -> LinearExpr {
        LinearExpr::var(Var::new("y"))
    }

    #[test]
    fn constant_folding() {
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::True]),
            Formula::True
        );
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::False]),
            Formula::False
        );
        assert_eq!(
            Formula::or(vec![Formula::False, Formula::False]),
            Formula::False
        );
        assert_eq!(
            Formula::or(vec![Formula::True, Formula::False]),
            Formula::True
        );
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn flattening() {
        let f = Formula::and(vec![
            Formula::and(vec![
                Formula::eq(x(), LinearExpr::constant(1)),
                Formula::eq(y(), LinearExpr::constant(2)),
            ]),
            Formula::eq(x(), y()),
        ]);
        match f {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected And, got {other}"),
        }
    }

    #[test]
    fn nnf_pushes_negation() {
        let f = Formula::not(Formula::and(vec![
            Formula::le(x(), LinearExpr::constant(0)),
            Formula::ge(y(), LinearExpr::constant(0)),
        ]));
        let nnf = f.to_nnf();
        match nnf {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                for p in parts {
                    assert!(matches!(p, Formula::Atom(_)));
                }
            }
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn eval_respects_model() {
        let f = Formula::and(vec![
            Formula::gt(x(), LinearExpr::constant(0)),
            Formula::lt(y(), LinearExpr::constant(5)),
        ]);
        let mut m = Model::new();
        m.set(Var::new("x"), 1);
        m.set(Var::new("y"), 3);
        assert!(f.eval(&m));
        m.set(Var::new("y"), 7);
        assert!(!f.eval(&m));
    }

    #[test]
    fn dnf_counts() {
        // (a || b) && (c || d) has 4 cubes
        let a = Formula::eq(x(), LinearExpr::constant(1));
        let b = Formula::eq(x(), LinearExpr::constant(2));
        let c = Formula::eq(y(), LinearExpr::constant(3));
        let d = Formula::eq(y(), LinearExpr::constant(4));
        let f = Formula::and(vec![Formula::or(vec![a, b]), Formula::or(vec![c, d])]);
        let dnf = f.to_dnf(100).expect("within budget");
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|cube| cube.len() == 2));
    }

    #[test]
    fn dnf_budget_exceeded() {
        let mut parts = Vec::new();
        for i in 0..20 {
            parts.push(Formula::or(vec![
                Formula::eq(x(), LinearExpr::constant(i as i64)),
                Formula::eq(y(), LinearExpr::constant(i as i64)),
            ]));
        }
        let f = Formula::and(parts);
        assert!(f.to_dnf(1000).is_none());
    }

    #[test]
    fn disequality_split() {
        let f = Formula::ne(x(), LinearExpr::constant(3));
        let dnf = f.to_dnf(10).expect("small");
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|c| c.len() == 1));
        assert!(dnf.iter().any(|c| c[0].rel == Rel::Lt));
        assert!(dnf.iter().any(|c| c[0].rel == Rel::Gt));
    }

    #[test]
    fn substitution() {
        let f = Formula::eq(x(), y());
        let g = f.substitute(&Var::new("x"), &LinearExpr::constant(4));
        let mut m = Model::new();
        m.set(Var::new("y"), 4);
        assert!(g.eval(&m));
        m.set(Var::new("y"), 5);
        assert!(!g.eval(&m));
    }

    #[test]
    fn free_vars() {
        let f = Formula::and(vec![
            Formula::eq(x(), LinearExpr::constant(1)),
            Formula::le(y(), x()),
        ]);
        let vars = f.free_vars();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&Var::new("x")));
        assert!(vars.contains(&Var::new("y")));
    }
}
