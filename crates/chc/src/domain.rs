//! The abstract domain of the approximate Horn solver: per-example products
//! of intervals and congruences for integer nonterminals, three-valued
//! Booleans for Boolean nonterminals.
//!
//! Every operation is exact over ℤ or loses information: a bound or a
//! constant that leaves the i64 range becomes unbounded or ⊤, never a
//! saturated or wrapped value, so membership in an abstract value is a
//! claim about unbounded integers.

use std::fmt;

use logic::{Formula, LinearExpr, Var};

/// An integer interval with optional (±∞) bounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The full interval `(−∞, +∞)`.
    pub fn top() -> Self {
        Interval { lo: None, hi: None }
    }

    /// The singleton interval `[c, c]`.
    pub fn constant(c: i64) -> Self {
        Interval {
            lo: Some(c),
            hi: Some(c),
        }
    }

    /// `true` if the interval contains `v`.
    pub fn contains(&self, v: i64) -> bool {
        self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }

    /// The single member of a one-point interval.
    pub fn singleton(&self) -> Option<i64> {
        self.lo.filter(|_| self.lo == self.hi)
    }

    /// `true` if the two intervals share a member.
    pub fn meets(&self, other: &Interval) -> bool {
        let below =
            |hi: Option<i64>, lo: Option<i64>| matches!((hi, lo), (Some(h), Some(l)) if h < l);
        !below(self.hi, other.lo) && !below(other.hi, self.lo)
    }

    /// Interval addition; a bound that overflows i64 becomes unbounded.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: self.hi.zip(other.hi).and_then(|(a, b)| a.checked_add(b)),
        }
    }

    /// Interval negation; `−i64::MIN` is out of range, so that bound
    /// becomes unbounded.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(i64::checked_neg),
            hi: self.lo.and_then(i64::checked_neg),
        }
    }

    /// Join (convex hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Standard interval widening: bounds that grew are pushed to ±∞.
    pub fn widen(&self, newer: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, newer.lo) {
                (Some(a), Some(b)) if b < a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
            hi: match (self.hi, newer.hi) {
                (Some(a), Some(b)) if b > a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
        }
    }
}

/// A congruence class `r (mod m)`.
///
/// `modulus == 0` encodes the exact constant `rem`; `modulus == 1` is top.
/// Moduli stay at most `i64::MAX`, so every remainder is an i64; a class
/// that does not fit becomes top.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Congruence {
    /// The modulus `0 ≤ m ≤ i64::MAX`.
    pub modulus: u64,
    /// The remainder, normalised to `0 ≤ rem < m` when `m > 0`.
    pub rem: i64,
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Congruence {
    /// The top element (`0 mod 1`): no congruence information.
    pub fn top() -> Self {
        Congruence { modulus: 1, rem: 0 }
    }

    /// The exact constant `c`.
    pub fn constant(c: i64) -> Self {
        Congruence { modulus: 0, rem: c }
    }

    fn normalise(self) -> Self {
        match i64::try_from(self.modulus) {
            Ok(0) => self,
            Ok(m) => Congruence {
                modulus: self.modulus,
                rem: self.rem.rem_euclid(m),
            },
            Err(_) => Congruence::top(),
        }
    }

    /// `true` if `v` is a member of the congruence class.
    pub fn contains(&self, v: i64) -> bool {
        // a multiple of 0 is 0: a constant contains only itself
        v.abs_diff(self.rem).is_multiple_of(self.modulus)
    }

    /// `true` if the two classes share a member: `r₁ ≡ r₂ (mod gcd(m₁, m₂))`.
    pub fn meets(&self, other: &Congruence) -> bool {
        self.rem
            .abs_diff(other.rem)
            .is_multiple_of(gcd(self.modulus, other.modulus))
    }

    /// Abstract addition; a constant sum outside i64 is top.
    pub fn add(&self, other: &Congruence) -> Congruence {
        let modulus = gcd(self.modulus, other.modulus);
        match self.rem.checked_add(other.rem) {
            Some(rem) => Congruence { modulus, rem }.normalise(),
            None if modulus == 0 => Congruence::top(),
            None => {
                let rem =
                    (i128::from(self.rem) + i128::from(other.rem)).rem_euclid(i128::from(modulus));
                Congruence {
                    modulus,
                    rem: rem as i64,
                }
            }
        }
    }

    /// Abstract negation; `−i64::MIN` is out of range, so it is top.
    pub fn neg(&self) -> Congruence {
        match self.rem.checked_neg() {
            Some(rem) => Congruence {
                modulus: self.modulus,
                rem,
            }
            .normalise(),
            None => Congruence::top(),
        }
    }

    /// Join: the least congruence containing both classes.
    pub fn join(&self, other: &Congruence) -> Congruence {
        Congruence {
            modulus: gcd(
                gcd(self.modulus, other.modulus),
                self.rem.abs_diff(other.rem),
            ),
            rem: self.rem,
        }
        .normalise()
    }
}

/// The abstract value of one output component: interval × congruence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsInt {
    /// Range information.
    pub interval: Interval,
    /// Divisibility information.
    pub congruence: Congruence,
}

impl AbsInt {
    /// Top (no information).
    pub fn top() -> Self {
        AbsInt {
            interval: Interval::top(),
            congruence: Congruence::top(),
        }
    }

    /// The exact constant `c`.
    pub fn constant(c: i64) -> Self {
        AbsInt {
            interval: Interval::constant(c),
            congruence: Congruence::constant(c),
        }
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        self.interval.contains(v) && self.congruence.contains(v)
    }

    /// Abstract addition.
    pub fn add(&self, other: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.add(&other.interval),
            congruence: self.congruence.add(&other.congruence),
        }
    }

    /// Abstract negation.
    pub fn neg(&self) -> AbsInt {
        AbsInt {
            interval: self.interval.neg(),
            congruence: self.congruence.neg(),
        }
    }

    /// Join.
    pub fn join(&self, other: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.join(&other.interval),
            congruence: self.congruence.join(&other.congruence),
        }
    }

    /// Widening (intervals widen; congruences have finite chains and join).
    pub fn widen(&self, newer: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.widen(&newer.interval),
            congruence: self.congruence.join(&newer.congruence),
        }
    }

    /// Symbolic concretization: constraints satisfied by every member, over
    /// the output variable `out` (auxiliary congruence multiplier variables
    /// are named from `aux_name`).
    pub fn to_formula(&self, out: &Var, aux_name: &str) -> Formula {
        let mut conjuncts = Vec::new();
        let o = LinearExpr::var(out.clone());
        if let Some(lo) = self.interval.lo {
            conjuncts.push(Formula::ge(o.clone(), LinearExpr::constant(lo)));
        }
        if let Some(hi) = self.interval.hi {
            conjuncts.push(Formula::le(o.clone(), LinearExpr::constant(hi)));
        }
        if self.congruence.modulus == 0 {
            conjuncts.push(Formula::eq(o, LinearExpr::constant(self.congruence.rem)));
        } else if self.congruence.modulus > 1 {
            // o = rem + m·k for some integer k
            let k = Var::new(aux_name);
            let rhs = LinearExpr::var(k).scale(self.congruence.modulus as i64)
                + LinearExpr::constant(self.congruence.rem);
            conjuncts.push(Formula::eq(o, rhs));
        }
        Formula::and(conjuncts)
    }
}

/// A three-valued abstract Boolean.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsBool {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (may be either).
    Top,
}

impl AbsBool {
    /// Abstraction of a concrete Boolean.
    pub fn of(b: bool) -> Self {
        if b {
            AbsBool::True
        } else {
            AbsBool::False
        }
    }

    /// Join.
    pub fn join(&self, other: &AbsBool) -> AbsBool {
        if self == other {
            *self
        } else {
            AbsBool::Top
        }
    }

    /// Three-valued negation.
    pub fn not(&self) -> AbsBool {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Top => AbsBool::Top,
        }
    }

    /// Three-valued conjunction.
    pub fn and(&self, other: &AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
            (AbsBool::True, AbsBool::True) => AbsBool::True,
            _ => AbsBool::Top,
        }
    }

    /// Three-valued disjunction.
    pub fn or(&self, other: &AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
            (AbsBool::False, AbsBool::False) => AbsBool::False,
            _ => AbsBool::Top,
        }
    }

    /// Abstract comparison of two [`AbsInt`]s.
    pub fn less_than(a: &AbsInt, b: &AbsInt) -> AbsBool {
        match (a.interval.hi, b.interval.lo) {
            (Some(ah), Some(bl)) if ah < bl => return AbsBool::True,
            _ => {}
        }
        match (a.interval.lo, b.interval.hi) {
            (Some(al), Some(bh)) if al >= bh => return AbsBool::False,
            _ => {}
        }
        AbsBool::Top
    }

    /// Abstract equality of two [`AbsInt`]s: `True` when both are the same
    /// single value, `False` when their intervals or their congruence
    /// classes are disjoint.
    pub fn equal(a: &AbsInt, b: &AbsInt) -> AbsBool {
        match (a.interval.singleton(), b.interval.singleton()) {
            (Some(x), Some(y)) if x == y => AbsBool::True,
            _ if !a.interval.meets(&b.interval) || !a.congruence.meets(&b.congruence) => {
                AbsBool::False
            }
            _ => AbsBool::Top,
        }
    }

    /// Symbolic concretization over the output variable `out`, in the 0/1
    /// encoding of Booleans the specification uses.
    pub fn to_formula(&self, out: &Var) -> Formula {
        let o = LinearExpr::var(out.clone());
        match self {
            AbsBool::True => Formula::eq(o, LinearExpr::constant(1)),
            AbsBool::False => Formula::eq(o, LinearExpr::constant(0)),
            AbsBool::Top => Formula::and(vec![
                Formula::ge(o.clone(), LinearExpr::constant(0)),
                Formula::le(o, LinearExpr::constant(1)),
            ]),
        }
    }
}

/// The abstract value of a nonterminal: one component per input example,
/// or `Bottom` for a nonterminal that derives no terms yet.
#[derive(Clone, PartialEq, Debug)]
pub enum AbsValue {
    /// No derivable term (the least element).
    Bottom,
    /// An integer-sorted abstraction, one [`AbsInt`] per example.
    Int(Vec<AbsInt>),
    /// A Boolean-sorted abstraction, one [`AbsBool`] per example.
    Bool(Vec<AbsBool>),
}

impl AbsValue {
    /// Join of two abstract values.
    ///
    /// # Panics
    /// Panics when joining an integer value with a Boolean value.
    pub fn join(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bottom, v) | (v, AbsValue::Bottom) => v.clone(),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                AbsValue::Int(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            (AbsValue::Bool(a), AbsValue::Bool(b)) => {
                AbsValue::Bool(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            _ => panic!("cannot join values of different sorts"),
        }
    }

    /// Widening of two abstract values (old, new).
    pub fn widen(&self, newer: &AbsValue) -> AbsValue {
        match (self, newer) {
            (AbsValue::Bottom, v) | (v, AbsValue::Bottom) => v.clone(),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                AbsValue::Int(a.iter().zip(b).map(|(x, y)| x.widen(y)).collect())
            }
            (AbsValue::Bool(a), AbsValue::Bool(b)) => {
                AbsValue::Bool(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            _ => panic!("cannot widen values of different sorts"),
        }
    }

    /// `true` if this is the bottom element.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbsValue::Bottom)
    }

    /// The one-example value of component `j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range for a non-bottom value.
    pub fn component(&self, j: usize) -> AbsValue {
        match self {
            AbsValue::Bottom => AbsValue::Bottom,
            AbsValue::Int(v) => AbsValue::Int(vec![v[j]]),
            AbsValue::Bool(v) => AbsValue::Bool(vec![v[j]]),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lo {
            Some(lo) => write!(f, "[{lo}, ")?,
            None => write!(f, "(-∞, ")?,
        }
        match self.hi {
            Some(hi) => write!(f, "{hi}]"),
            None => write!(f, "+∞)"),
        }
    }
}

/// The interval, then the congruence when its modulus exceeds 1
/// (`[5, +∞) ≡ 1 (mod 2)`); an exact constant shows as its one-point
/// interval.
impl fmt::Display for AbsInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.interval)?;
        match self.congruence.modulus {
            0 | 1 => Ok(()),
            m => write!(f, " ≡ {} (mod {m})", self.congruence.rem),
        }
    }
}

impl fmt::Display for AbsBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbsBool::True => "{true}",
            AbsBool::False => "{false}",
            AbsBool::Top => "{true, false}",
        })
    }
}

/// `⊥`, a single component as is, several as a tuple.
impl fmt::Display for AbsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn components<T: fmt::Display>(f: &mut fmt::Formatter<'_>, v: &[T]) -> fmt::Result {
            match v {
                [one] => write!(f, "{one}"),
                _ => {
                    let rendered: Vec<String> = v.iter().map(T::to_string).collect();
                    write!(f, "({})", rendered.join(", "))
                }
            }
        }
        match self {
            AbsValue::Bottom => write!(f, "⊥"),
            AbsValue::Int(v) => components(f, v),
            AbsValue::Bool(v) => components(f, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_operations() {
        let a = Interval::constant(3);
        let b = Interval {
            lo: Some(0),
            hi: None,
        };
        assert!(a.add(&a).contains(6));
        assert_eq!(a.neg(), Interval::constant(-3));
        let j = a.join(&Interval::constant(10));
        assert!(j.contains(3) && j.contains(10) && j.contains(7));
        assert!(!j.contains(11));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(-1));
    }

    #[test]
    fn interval_widening_goes_to_infinity() {
        let old = Interval {
            lo: Some(0),
            hi: Some(3),
        };
        let new = Interval {
            lo: Some(0),
            hi: Some(6),
        };
        let w = old.widen(&new);
        assert_eq!(w.lo, Some(0));
        assert_eq!(w.hi, None);
    }

    #[test]
    fn interval_bounds_outside_i64_become_unbounded() {
        let sum = Interval::constant(i64::MAX).add(&Interval::constant(1));
        assert_eq!(sum, Interval::top(), "2⁶³ is no i64 bound");
        assert_eq!(Interval::constant(i64::MIN).neg(), Interval::top());
        assert_eq!(
            Interval::constant(i64::MAX).add(&Interval::constant(-1)),
            Interval::constant(i64::MAX - 1)
        );
    }

    #[test]
    fn congruences_outside_i64_contain_the_integer_result_or_are_top() {
        let (max, min) = (
            Congruence::constant(i64::MAX),
            Congruence::constant(i64::MIN),
        );
        assert_eq!(max.add(&Congruence::constant(1)), Congruence::top());
        assert_eq!(min.add(&Congruence::constant(-1)), Congruence::top());
        assert_eq!(min.neg(), Congruence::top());
        // |MAX − MIN| = 2⁶⁴ − 1 is no i64 modulus
        assert_eq!(max.join(&min), Congruence::top());
        // a modulus of i64::MAX: remainders overflow when added, yet the
        // sum class is exact
        let wide = Congruence::constant(i64::MAX - 1).join(&Congruence::constant(-1));
        assert_eq!(
            wide,
            Congruence {
                modulus: i64::MAX as u64,
                rem: i64::MAX - 1
            }
        );
        let sum = wide.add(&wide);
        assert!(sum.contains(-2) && sum.contains(i64::MAX - 2));
        assert!(!sum.contains(0));
        assert!(!sum.meets(&Congruence::constant(0)));
    }

    #[test]
    fn congruence_operations() {
        let three = Congruence::constant(3);
        let six = Congruence::constant(6);
        // join of the constants 3 and 6 is 0 (mod 3)
        let j = three.join(&six);
        assert_eq!(j.modulus, 3);
        assert!(j.contains(0) && j.contains(9));
        assert!(!j.contains(4));
        // adding two multiples-of-3 stays a multiple of 3
        let sum = j.add(&j);
        assert_eq!(sum.modulus, 3);
        assert!(sum.contains(6));
        assert!(!sum.contains(7));
        assert!(Congruence::top().contains(-17));
    }

    #[test]
    fn absint_tracks_both_components() {
        // {0, 3, 6, …}: interval [0, ∞) and ≡ 0 (mod 3)
        let zero = AbsInt::constant(0);
        let three = AbsInt::constant(3);
        let mut acc = zero;
        for _ in 0..3 {
            acc = acc.join(&acc.add(&three));
        }
        let widened = zero.widen(&acc);
        assert!(widened.contains(0));
        assert!(widened.contains(300));
        assert!(!widened.contains(4), "4 is not ≡ 0 mod 3");
        assert!(!widened.contains(-3), "interval keeps the lower bound 0");
    }

    #[test]
    fn absint_formula_round_trip() {
        use logic::{Model, Solver};
        let a = AbsInt {
            interval: Interval {
                lo: Some(0),
                hi: None,
            },
            congruence: Congruence { modulus: 3, rem: 0 },
        };
        let out = Var::new("o");
        let f = a.to_formula(&out, "k");
        // 6 is a member, 4 is not, -3 is not
        let solver = Solver::default();
        let check = |v: i64| {
            let pinned = Formula::and(vec![
                f.clone(),
                Formula::eq(LinearExpr::var(out.clone()), LinearExpr::constant(v)),
            ]);
            solver.check(&pinned).is_sat()
        };
        assert!(check(6));
        assert!(!check(4));
        assert!(!check(-3));
        // direct model evaluation also works for members
        let mut m = Model::new();
        m.set(out.clone(), 6);
        m.set(Var::new("k"), 2);
        assert!(f.eval(&m));
    }

    #[test]
    fn absbool_lattice() {
        assert_eq!(AbsBool::True.join(&AbsBool::True), AbsBool::True);
        assert_eq!(AbsBool::True.join(&AbsBool::False), AbsBool::Top);
        assert_eq!(AbsBool::Top.not(), AbsBool::Top);
        assert_eq!(AbsBool::True.and(&AbsBool::Top), AbsBool::Top);
        assert_eq!(AbsBool::False.and(&AbsBool::Top), AbsBool::False);
        assert_eq!(AbsBool::True.or(&AbsBool::Top), AbsBool::True);
    }

    #[test]
    fn abstract_equality_uses_both_components() {
        let even = AbsInt::constant(0).join(&AbsInt::constant(2));
        let odd = AbsInt::constant(1).join(&AbsInt::constant(3));
        assert_eq!(
            AbsBool::equal(&even, &odd),
            AbsBool::False,
            "parities differ"
        );
        assert_eq!(AbsBool::equal(&even, &even), AbsBool::Top);
        let five = AbsInt::constant(5);
        assert_eq!(AbsBool::equal(&five, &five), AbsBool::True);
        assert_eq!(
            AbsBool::equal(&five, &even),
            AbsBool::False,
            "intervals differ"
        );
    }

    #[test]
    fn values_display_interval_then_congruence() {
        let odd_from_5 = AbsInt {
            interval: Interval {
                lo: Some(5),
                hi: None,
            },
            congruence: Congruence { modulus: 2, rem: 1 },
        };
        assert_eq!(odd_from_5.to_string(), "[5, +∞) ≡ 1 (mod 2)");
        assert_eq!(AbsInt::constant(-3).to_string(), "[-3, -3]");
        assert_eq!(AbsInt::top().to_string(), "(-∞, +∞)");
        let pair = AbsValue::Int(vec![odd_from_5, AbsInt::constant(0)]);
        assert_eq!(pair.to_string(), "([5, +∞) ≡ 1 (mod 2), [0, 0])");
        assert_eq!(pair.component(1).to_string(), "[0, 0]");
        assert_eq!(
            AbsValue::Bool(vec![AbsBool::Top]).to_string(),
            "{true, false}"
        );
        assert_eq!(AbsValue::Bottom.to_string(), "⊥");
    }

    #[test]
    fn abstract_less_than() {
        let small = AbsInt {
            interval: Interval {
                lo: Some(0),
                hi: Some(1),
            },
            congruence: Congruence::top(),
        };
        let big = AbsInt {
            interval: Interval {
                lo: Some(5),
                hi: Some(9),
            },
            congruence: Congruence::top(),
        };
        assert_eq!(AbsBool::less_than(&small, &big), AbsBool::True);
        assert_eq!(AbsBool::less_than(&big, &small), AbsBool::False);
        assert_eq!(AbsBool::less_than(&small, &small), AbsBool::Top);
    }

    #[test]
    fn value_join_and_bottom() {
        let a = AbsValue::Int(vec![AbsInt::constant(1)]);
        let b = AbsValue::Int(vec![AbsInt::constant(5)]);
        let j = a.join(&b);
        match &j {
            AbsValue::Int(v) => {
                assert!(v[0].contains(1) && v[0].contains(5));
                assert!(!v[0].contains(2), "congruence 1 mod 4 excludes 2");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(AbsValue::Bottom.join(&a), a);
        assert!(AbsValue::Bottom.is_bottom());
    }
}
