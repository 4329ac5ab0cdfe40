//! The semiring interface and its semi-linear-set instantiation.

use semilinear::SemiLinearSet;

/// A commutative, idempotent, ω-continuous semiring `(D, ⊕, ⊗, 0, 1)` with a
/// Kleene-star operator (Def. 5.1).
///
/// The trait is *context-style*: an implementing value carries whatever
/// information is needed to build `0` and `1` (e.g. the vector dimension for
/// semi-linear sets), and the elements themselves are a separate associated
/// type.
pub trait Semiring {
    /// The carrier type of the semiring.
    type Elem: Clone + PartialEq + std::fmt::Debug;

    /// The additive identity `0` (absorbing for `⊗`).
    fn zero(&self) -> Self::Elem;
    /// The multiplicative identity `1`.
    fn one(&self) -> Self::Elem;
    /// The combine operation `⊕` (associative, commutative, idempotent).
    fn combine(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// The extend operation `⊗` (associative, commutative, distributes over `⊕`).
    fn extend(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// The Kleene star `a⊛ = ⊕ᵢ aⁱ`.
    fn star(&self, a: &Self::Elem) -> Self::Elem;

    /// An optional normalisation applied after each solver step (e.g. the
    /// subsumption pruning of naySL). Must not change the denoted value.
    fn normalize(&self, a: Self::Elem) -> Self::Elem {
        a
    }

    /// Combines an iterator of elements (`0` for an empty iterator).
    fn combine_all<'a>(&self, items: impl IntoIterator<Item = &'a Self::Elem>) -> Self::Elem
    where
        Self::Elem: 'a,
    {
        items
            .into_iter()
            .fold(self.zero(), |acc, x| self.combine(&acc, x))
    }

    /// Extends an iterator of elements (`1` for an empty iterator).
    fn extend_all<'a>(&self, items: impl IntoIterator<Item = &'a Self::Elem>) -> Self::Elem
    where
        Self::Elem: 'a,
    {
        items
            .into_iter()
            .fold(self.one(), |acc, x| self.extend(&acc, x))
    }
}

/// The semiring of semi-linear sets of a fixed dimension (Prop. 5.8), the
/// abstract domain used by the naySL decision procedure.
///
/// `prune` enables the trivial-subsumption pruning optimisation described in
/// §7.
///
/// # Example
/// ```
/// use gfa::{SemiLinearSemiring, Semiring};
/// use semilinear::{IntVec, SemiLinearSet};
/// let sr = SemiLinearSemiring::new(1);
/// let three = SemiLinearSet::singleton(IntVec::from(vec![3]));
/// // {3}⊛ ⊗ 1 = {0 + 3λ}
/// let sol = sr.extend(&sr.star(&three), &sr.one());
/// assert!(sol.contains(&IntVec::from(vec![6])));
/// ```
#[derive(Clone, Debug)]
pub struct SemiLinearSemiring {
    dim: usize,
    prune: bool,
}

impl SemiLinearSemiring {
    /// Creates the semiring of semi-linear sets over `ℤ^dim` with pruning
    /// enabled.
    pub fn new(dim: usize) -> Self {
        SemiLinearSemiring { dim, prune: true }
    }

    /// Enables or disables subsumption pruning (used by the Fig. 4
    /// stratification/pruning ablations).
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// The vector dimension (= number of examples).
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Semiring for SemiLinearSemiring {
    type Elem = SemiLinearSet;

    fn zero(&self) -> SemiLinearSet {
        SemiLinearSet::zero()
    }

    fn one(&self) -> SemiLinearSet {
        SemiLinearSet::one(self.dim)
    }

    fn combine(&self, a: &SemiLinearSet, b: &SemiLinearSet) -> SemiLinearSet {
        a.combine(b)
    }

    fn extend(&self, a: &SemiLinearSet, b: &SemiLinearSet) -> SemiLinearSet {
        a.extend(b)
    }

    fn star(&self, a: &SemiLinearSet) -> SemiLinearSet {
        if a.is_zero() {
            // 0⊛ = 1
            self.one()
        } else {
            a.star()
        }
    }

    fn normalize(&self, a: SemiLinearSet) -> SemiLinearSet {
        if self.prune {
            a.prune()
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::IntVec;

    fn sr() -> SemiLinearSemiring {
        SemiLinearSemiring::new(2)
    }
    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn semiring_identities() {
        let s = sr();
        let a = single(&[1, 2]);
        assert_eq!(s.combine(&a, &s.zero()), a);
        assert_eq!(s.extend(&a, &s.one()), a);
        assert_eq!(s.extend(&a, &s.zero()), s.zero());
        assert_eq!(s.star(&s.zero()), s.one());
    }

    #[test]
    fn combine_all_and_extend_all() {
        let s = sr();
        let items = [single(&[1, 0]), single(&[0, 1])];
        let sum = s.combine_all(items.iter());
        assert_eq!(sum.linear_sets().len(), 2);
        let prod = s.extend_all(items.iter());
        assert!(prod.contains(&IntVec::from(vec![1, 1])));
        assert_eq!(s.combine_all(std::iter::empty()), s.zero());
        assert_eq!(s.extend_all(std::iter::empty()), s.one());
    }

    #[test]
    fn normalization_prunes() {
        let s = sr();
        let a = SemiLinearSet::from_linear_sets([
            semilinear::LinearSet::new(IntVec::from(vec![0, 0]), vec![IntVec::from(vec![1, 1])]),
            semilinear::LinearSet::new(IntVec::from(vec![2, 2]), vec![IntVec::from(vec![1, 1])]),
        ]);
        assert_eq!(s.normalize(a.clone()).linear_sets().len(), 1);
        let no_prune = SemiLinearSemiring::new(2).with_pruning(false);
        assert_eq!(no_prune.normalize(a).linear_sets().len(), 2);
    }
}
