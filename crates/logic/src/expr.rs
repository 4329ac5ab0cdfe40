//! Linear integer expressions `c + Σ aᵢ·xᵢ`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// An interned integer variable name.
///
/// Variables are compared by name; cloning is cheap (reference counted).
///
/// # Example
/// ```
/// use logic::Var;
/// let x = Var::new("x");
/// assert_eq!(x.name(), "x");
/// assert_eq!(x, Var::new("x"));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Var(Arc::from(name.into().as_str()))
    }

    /// Creates an indexed variable `prefix_i`, useful for output vectors.
    pub fn indexed(prefix: &str, index: usize) -> Self {
        Var::new(format!("{prefix}_{index}"))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A linear expression `constant + Σ coeffᵢ · varᵢ` over integers.
///
/// Expressions are kept normalized: variables with coefficient zero are
/// removed. All arithmetic is by-value and cheap for the small expressions
/// that arise in unrealizability queries.
///
/// # Example
/// ```
/// use logic::{LinearExpr, Var};
/// let x = LinearExpr::var(Var::new("x"));
/// let e = x.scale(3) + LinearExpr::constant(2);
/// assert_eq!(e.coeff(&Var::new("x")), 3);
/// assert_eq!(e.constant_part(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LinearExpr {
    constant: i64,
    coeffs: BTreeMap<Var, i64>,
}

impl LinearExpr {
    /// The expression `0`.
    pub fn zero() -> Self {
        LinearExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinearExpr {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: Var) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, 1);
        LinearExpr {
            constant: 0,
            coeffs,
        }
    }

    /// Builds an expression from an iterator of `(variable, coefficient)`
    /// pairs and a constant.
    pub fn from_terms(terms: impl IntoIterator<Item = (Var, i64)>, constant: i64) -> Self {
        let mut e = LinearExpr::constant(constant);
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `coeff · var` to the expression in place.
    pub fn add_term(&mut self, var: Var, coeff: i64) {
        let entry = self.coeffs.entry(var).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            // keep normalized
            let key = self
                .coeffs
                .iter()
                .find(|(_, c)| **c == 0)
                .map(|(v, _)| v.clone());
            if let Some(key) = key {
                self.coeffs.remove(&key);
            }
        }
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &Var) -> i64 {
        self.coeffs.get(var).copied().unwrap_or(0)
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, i64)> {
        self.coeffs.iter().map(|(v, c)| (v, *c))
    }

    /// The set of variables occurring with a non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.coeffs.keys()
    }

    /// `true` when the expression contains no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Multiplies the whole expression by `k`.
    pub fn scale(&self, k: i64) -> LinearExpr {
        if k == 0 {
            return LinearExpr::zero();
        }
        LinearExpr {
            constant: self.constant * k,
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), c * k))
                .collect(),
        }
    }

    /// [`scale`](Self::scale), or `None` when a coefficient or the constant
    /// overflows i64.
    pub fn checked_scale(&self, k: i64) -> Option<LinearExpr> {
        if k == 0 {
            return Some(LinearExpr::zero());
        }
        Some(LinearExpr {
            constant: self.constant.checked_mul(k)?,
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| Some((v.clone(), c.checked_mul(k)?)))
                .collect::<Option<_>>()?,
        })
    }

    /// `self + rhs`, or `None` when a coefficient or the constant overflows
    /// i64.
    pub fn checked_add(self, rhs: LinearExpr) -> Option<LinearExpr> {
        let mut out = self;
        out.constant = out.constant.checked_add(rhs.constant)?;
        for (v, c) in rhs.coeffs {
            let entry = out.coeffs.entry(v).or_insert(0);
            *entry = entry.checked_add(c)?;
        }
        out.coeffs.retain(|_, c| *c != 0);
        Some(out)
    }

    /// `self - rhs`, or `None` when a coefficient or the constant overflows
    /// i64.
    pub fn checked_sub(self, rhs: LinearExpr) -> Option<LinearExpr> {
        let mut out = self;
        out.constant = out.constant.checked_sub(rhs.constant)?;
        for (v, c) in rhs.coeffs {
            let entry = out.coeffs.entry(v).or_insert(0);
            *entry = entry.checked_sub(c)?;
        }
        out.coeffs.retain(|_, c| *c != 0);
        Some(out)
    }

    /// Substitutes `var` by the expression `by`.
    pub fn substitute(&self, var: &Var, by: &LinearExpr) -> LinearExpr {
        let c = self.coeff(var);
        if c == 0 {
            return self.clone();
        }
        let mut rest = self.clone();
        rest.coeffs.remove(var);
        rest + by.scale(c)
    }

    /// Evaluates the expression exactly, over ℤ, under the assignment given
    /// by `lookup`: each product `c·v` of two i64 values fits in i128, and
    /// the sum is checked, so `None` means a partial sum left i128, never a
    /// wrapped value.
    ///
    /// Variables not covered by `lookup` are treated as 0.
    pub fn eval_with(&self, lookup: impl Fn(&Var) -> Option<i64>) -> Option<i128> {
        let mut acc = i128::from(self.constant);
        for (v, c) in &self.coeffs {
            let term = i128::from(*c) * i128::from(lookup(v).unwrap_or(0));
            acc = acc.checked_add(term)?;
        }
        Some(acc)
    }
}

impl fmt::Debug for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                if *c == 1 {
                    write!(f, "{v}")?;
                } else if *c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if *c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

impl Add for LinearExpr {
    type Output = LinearExpr;
    fn add(self, rhs: LinearExpr) -> LinearExpr {
        let mut out = self;
        out.constant += rhs.constant;
        for (v, c) in rhs.coeffs {
            let entry = out.coeffs.entry(v).or_insert(0);
            *entry += c;
        }
        out.coeffs.retain(|_, c| *c != 0);
        out
    }
}

impl Sub for LinearExpr {
    type Output = LinearExpr;
    fn sub(self, rhs: LinearExpr) -> LinearExpr {
        self + (-rhs)
    }
}

impl Neg for LinearExpr {
    type Output = LinearExpr;
    fn neg(self) -> LinearExpr {
        self.scale(-1)
    }
}

impl Mul<i64> for LinearExpr {
    type Output = LinearExpr;
    fn mul(self, rhs: i64) -> LinearExpr {
        self.scale(rhs)
    }
}

impl From<i64> for LinearExpr {
    fn from(v: i64) -> Self {
        LinearExpr::constant(v)
    }
}

impl From<Var> for LinearExpr {
    fn from(v: Var) -> Self {
        LinearExpr::var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var::new("x")
    }
    fn y() -> Var {
        Var::new("y")
    }

    #[test]
    fn build_and_query() {
        let e = LinearExpr::from_terms([(x(), 2), (y(), -1)], 5);
        assert_eq!(e.coeff(&x()), 2);
        assert_eq!(e.coeff(&y()), -1);
        assert_eq!(e.constant_part(), 5);
        assert_eq!(e.vars().count(), 2);
    }

    #[test]
    fn normalization_removes_zero_coeffs() {
        let e = LinearExpr::var(x()) - LinearExpr::var(x());
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), 0);
    }

    #[test]
    fn arithmetic() {
        let e = LinearExpr::var(x()).scale(3) + LinearExpr::constant(2);
        let f = LinearExpr::var(x()) + LinearExpr::var(y());
        let g = e.clone() + f.clone();
        assert_eq!(g.coeff(&x()), 4);
        assert_eq!(g.coeff(&y()), 1);
        assert_eq!(g.constant_part(), 2);
        let h = e - f;
        assert_eq!(h.coeff(&x()), 2);
        assert_eq!(h.coeff(&y()), -1);
    }

    #[test]
    fn checked_arithmetic_agrees_or_reports_overflow() {
        let e = LinearExpr::var(x()).scale(3) + LinearExpr::constant(2);
        let f = LinearExpr::var(x()).scale(-3) + LinearExpr::var(y());
        assert_eq!(e.clone().checked_add(f.clone()), Some(e.clone() + f));
        assert_eq!(e.checked_scale(-7), Some(e.scale(-7)));
        assert_eq!(e.checked_scale(0), Some(LinearExpr::zero()));
        assert_eq!(LinearExpr::constant(i64::MIN).checked_scale(-1), None);
        assert_eq!(
            LinearExpr::var(x()).checked_scale(i64::MIN),
            Some(LinearExpr::from_terms([(x(), i64::MIN)], 0))
        );
        assert_eq!(LinearExpr::var(x()).scale(2).checked_scale(i64::MIN), None);
        assert_eq!(
            LinearExpr::constant(i64::MAX).checked_add(LinearExpr::constant(1)),
            None
        );
        let big = LinearExpr::from_terms([(x(), i64::MAX)], 0);
        assert_eq!(big.clone().checked_add(LinearExpr::var(x())), None);
        assert_eq!(
            big.checked_add(LinearExpr::var(x()).scale(-1)),
            Some(LinearExpr::from_terms([(x(), i64::MAX - 1)], 0))
        );
    }

    #[test]
    fn substitution() {
        // (2x + y + 1)[x := y + 3] = 3y + 7
        let e = LinearExpr::from_terms([(x(), 2), (y(), 1)], 1);
        let by = LinearExpr::var(y()) + LinearExpr::constant(3);
        let s = e.substitute(&x(), &by);
        assert_eq!(s.coeff(&x()), 0);
        assert_eq!(s.coeff(&y()), 3);
        assert_eq!(s.constant_part(), 7);
    }

    #[test]
    fn evaluation() {
        let e = LinearExpr::from_terms([(x(), 2), (y(), -1)], 5);
        let val = e.eval_with(|v| match v.name() {
            "x" => Some(3),
            "y" => Some(1),
            _ => None,
        });
        assert_eq!(val, Some(10));
    }

    #[test]
    fn evaluation_is_exact_beyond_i64() {
        // 2·(2⁶³ − 1) + 2 = 2⁶⁴, which wraps to 0 in i64
        let e = LinearExpr::from_terms([(x(), 2)], 2);
        assert_eq!(e.eval_with(|_| Some(i64::MAX)), Some(1i128 << 64));
        // (2⁶³ − 1)² twice plus 2⁶³ − 1 still fits in i128, while
        // (−2⁶³)² twice is 2¹²⁷, one past its largest value
        let big = LinearExpr::from_terms([(x(), i64::MAX), (y(), i64::MAX)], i64::MAX);
        let square = i128::from(i64::MAX) * i128::from(i64::MAX);
        assert_eq!(
            big.eval_with(|_| Some(i64::MAX)),
            Some(2 * square + i128::from(i64::MAX))
        );
        let bigger = LinearExpr::from_terms([(x(), i64::MIN), (y(), i64::MIN)], 0);
        assert_eq!(bigger.eval_with(|_| Some(i64::MIN)), None);
    }

    #[test]
    fn display() {
        let e = LinearExpr::from_terms([(x(), 2), (y(), -1)], 5);
        assert_eq!(format!("{e}"), "2*x - y + 5");
        assert_eq!(format!("{}", LinearExpr::zero()), "0");
    }
}
