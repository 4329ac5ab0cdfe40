//! Exact rational arithmetic over `i128`, used by the simplex implementation.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0`, always kept in lowest
/// terms.
///
/// The numerator and denominator are `i128`, and every operation
/// normalizes its result. Arithmetic never wraps: the `checked_*` methods
/// answer `None` when a result (or an intermediate cross product) does not
/// fit, and the operators panic in that case. The exact simplex uses the
/// checked methods, so an overflow ends its solve as
/// [`LpResult::Overflow`](crate::LpResult::Overflow). When both operands
/// are integers, `+`, `−` and `×` skip the cross products and the gcd, and
/// a product with zero is zero; normal forms are unique, so these fast
/// paths give the same values as the general rule.
///
/// # Example
/// ```
/// use logic::Rational;
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// let max = Rational::new(i128::MAX, 1);
/// assert_eq!(max.checked_add(Rational::ONE), None);
/// assert_eq!(max.checked_mul(Rational::ZERO), Some(Rational::ZERO));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den`.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if the normal form does not fit `i128`
    /// (e.g. `i128::MIN / −1`); see [`checked_new`](Rational::checked_new).
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        Rational::checked_new(num, den).expect("rational overflow")
    }

    /// Creates `num / den` in lowest terms; `None` when `den == 0` or the
    /// normalized numerator or denominator does not fit in `i128` (the sign
    /// moves to the numerator, so e.g. `1 / i128::MIN` does not fit).
    pub fn checked_new(num: i128, den: i128) -> Option<Self> {
        if den == 0 {
            return None;
        }
        // A gcd of 2¹²⁷ means `den = i128::MIN` and `num ∈ {0, i128::MIN}`,
        // and dividing by `den` gives the value.
        let g = i128::try_from(gcd(num.unsigned_abs(), den.unsigned_abs())).unwrap_or(den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            Some(Rational {
                num: num.checked_neg()?,
                den: den.checked_neg()?,
            })
        } else {
            Some(Rational { num, den })
        }
    }

    /// Creates an integer-valued rational.
    pub fn from_int(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }

    /// The numerator (in lowest terms, sign carried here).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (in lowest terms, always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` when the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` when the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// The floor of the rational, as an `i128`.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The ceiling of the rational, as an `i128`.
    pub fn ceil(&self) -> i128 {
        let floor = self.floor();
        if self.is_integer() {
            floor
        } else {
            floor + 1
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics when the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        self.checked_recip().expect("rational overflow")
    }

    /// The multiplicative inverse; `None` for zero, or when the numerator
    /// is `i128::MIN` (its inverse's denominator does not fit).
    pub fn checked_recip(&self) -> Option<Rational> {
        Rational::checked_new(self.den, self.num)
    }

    /// `self + rhs`, or `None` on overflow.
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        self.checked_sum(rhs, i128::checked_add)
    }

    /// `self − rhs`, or `None` on overflow.
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_sum(rhs, i128::checked_sub)
    }

    /// `self ± rhs`, with `op` the checked `+` or `−` on `i128`.
    fn checked_sum(
        self,
        rhs: Rational,
        op: impl Fn(i128, i128) -> Option<i128>,
    ) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: op(self.num, rhs.num)?,
                den: 1,
            });
        }
        Rational::checked_new(
            op(
                self.num.checked_mul(rhs.den)?,
                rhs.num.checked_mul(self.den)?,
            )?,
            self.den.checked_mul(rhs.den)?,
        )
    }

    /// `self · rhs`, or `None` on overflow.
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        if self.num == 0 || rhs.num == 0 {
            return Some(Rational::ZERO);
        }
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        Rational::checked_new(
            self.num.checked_mul(rhs.num)?,
            self.den.checked_mul(rhs.den)?,
        )
    }

    /// `self / rhs`, or `None` when `rhs` is zero or on overflow.
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        Rational::checked_new(
            self.num.checked_mul(rhs.den)?,
            self.den.checked_mul(rhs.num)?,
        )
    }

    /// `−self`, or `None` when the numerator is `i128::MIN`.
    pub fn checked_neg(self) -> Option<Rational> {
        Some(Rational {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational overflow")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs).expect("rational overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs).expect("rational overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        self.checked_div(rhs).expect("rational overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.checked_neg().expect("rational overflow")
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    /// Compares the cross products `num₁·den₂` and `num₂·den₁`; when one
    /// overflows, compares the floors and then the fractional parts, the
    /// latter by their reciprocals (a continued-fraction step), so the
    /// order is exact for every pair of values.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        if let (Some(a), Some(b)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return a.cmp(&b);
        }
        let floors = self.floor().cmp(&other.floor());
        if floors != Ordering::Equal {
            return floors;
        }
        let (r1, r2) = (
            self.num.rem_euclid(self.den),
            other.num.rem_euclid(other.den),
        );
        match (r1, r2) {
            (0, 0) => Ordering::Equal,
            (0, _) => Ordering::Less,
            (_, 0) => Ordering::Greater,
            // r₁/d₁ < r₂/d₂ ⟺ d₂/r₂ < d₁/r₁; both are in lowest terms.
            _ => Rational {
                num: other.den,
                den: r2,
            }
            .cmp(&Rational {
                num: self.den,
                den: r1,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from_int(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::from_int(3) > Rational::new(5, 2));
    }

    #[test]
    fn overflow_is_none_and_never_wraps() {
        let max = Rational::new(i128::MAX, 1);
        let min = Rational::new(i128::MIN, 1);
        assert_eq!(max.checked_add(Rational::ONE), None);
        assert_eq!(min.checked_sub(Rational::ONE), None);
        assert_eq!(max.checked_mul(Rational::from_int(2)), None);
        assert_eq!(min.checked_neg(), None);
        assert_eq!(min.checked_recip(), None);
        assert_eq!(Rational::ONE.checked_div(Rational::ZERO), None);
        // fractional operands: the cross products overflow
        let big = Rational::new(i128::MAX, 3);
        assert_eq!(big.checked_add(Rational::new(1, 2)), None);
        assert_eq!(big.checked_mul(Rational::new(3, 2)), None);
        // a product with zero is zero even beside a huge operand
        assert_eq!(max.checked_mul(Rational::ZERO), Some(Rational::ZERO));
        assert_eq!(Rational::checked_new(1, 0), None);
        assert_eq!(
            Rational::checked_new(i128::MIN, i128::MIN),
            Some(Rational::ONE)
        );
        assert_eq!(Rational::checked_new(0, i128::MIN), Some(Rational::ZERO));
        assert_eq!(Rational::checked_new(1, i128::MIN), None);
        assert_eq!(
            Rational::checked_new(i128::MIN, -2),
            Some(Rational::new(1 << 126, 1))
        );
        assert_eq!(min.floor(), i128::MIN);
        assert_eq!(Rational::new(i128::MIN + 1, 2).ceil(), (i128::MIN + 1) / 2);
    }

    #[test]
    fn ordering_survives_overflowing_cross_products() {
        let a = Rational::new(i128::MAX, i128::MAX - 1);
        let b = Rational::new(i128::MAX - 1, i128::MAX - 2);
        // a = 1 + 1/(M−1) < b = 1 + 1/(M−2)
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(Rational::new(i128::MAX, 2) > Rational::new(i128::MAX - 2, 2));
        assert!(Rational::new(i128::MIN + 1, 3) < Rational::new(i128::MIN + 1, 5));
        assert!(Rational::new(i128::MAX, 7) > Rational::new(i128::MAX / 7, 1));
        assert!(Rational::new(-i128::MAX, 7) < Rational::new(-i128::MAX / 7, 1));
    }

    #[test]
    fn integer_check() {
        assert!(Rational::new(4, 2).is_integer());
        assert!(!Rational::new(3, 2).is_integer());
    }
}
