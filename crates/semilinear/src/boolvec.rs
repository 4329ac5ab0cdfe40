//! Boolean vectors and finite sets of Boolean vectors — the abstract domain
//! for Boolean nonterminals in CLIA grammars (§6.2).

use std::collections::BTreeSet;
use std::fmt;

/// A Boolean vector, one component per input example.
///
/// # Example
/// ```
/// use semilinear::BoolVec;
/// let b = BoolVec::from(vec![true, false]);
/// assert_eq!(!b.clone(), BoolVec::from(vec![false, true]));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BoolVec(Vec<bool>);

impl BoolVec {
    /// Creates a Boolean vector from components.
    pub fn new(components: Vec<bool>) -> Self {
        BoolVec(components)
    }

    /// The all-true vector of dimension `dim`.
    pub fn trues(dim: usize) -> Self {
        BoolVec(vec![true; dim])
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[bool] {
        &self.0
    }

    /// Component-wise conjunction.
    pub fn and(&self, other: &BoolVec) -> BoolVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        BoolVec(self.0.iter().zip(&other.0).map(|(a, b)| *a && *b).collect())
    }

    /// Component-wise disjunction.
    pub fn or(&self, other: &BoolVec) -> BoolVec {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        BoolVec(self.0.iter().zip(&other.0).map(|(a, b)| *a || *b).collect())
    }

    /// Component-wise negation.
    pub fn negate(&self) -> BoolVec {
        BoolVec(self.0.iter().map(|b| !b).collect())
    }

    /// Enumerates all `2^dim` Boolean vectors of a dimension.
    pub fn all(dim: usize) -> Vec<BoolVec> {
        let mut out = Vec::with_capacity(1 << dim);
        for bits in 0..(1u64 << dim) {
            out.push(BoolVec((0..dim).map(|i| bits >> i & 1 == 1).collect()));
        }
        out
    }
}

impl From<Vec<bool>> for BoolVec {
    fn from(v: Vec<bool>) -> Self {
        BoolVec(v)
    }
}

impl std::ops::Not for BoolVec {
    type Output = BoolVec;
    fn not(self) -> BoolVec {
        self.negate()
    }
}

impl std::ops::Index<usize> for BoolVec {
    type Output = bool;
    fn index(&self, i: usize) -> &bool {
        &self.0[i]
    }
}

impl fmt::Debug for BoolVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for BoolVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", if *b { "t" } else { "f" })?;
        }
        write!(f, ")")
    }
}

/// A finite set of Boolean vectors — the abstract value of a Boolean
/// nonterminal (§6.2). The domain has at most `2^|E|` elements, so
/// fixed-point iteration over it always terminates (Lemma 6.5).
///
/// # Example
/// ```
/// use semilinear::{BoolVec, BoolVecSet};
/// let s = BoolVecSet::from_vecs([BoolVec::from(vec![true, false])]);
/// let n = s.not();
/// assert!(n.contains(&BoolVec::from(vec![false, true])));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BoolVecSet {
    vecs: BTreeSet<BoolVec>,
}

impl BoolVecSet {
    /// The empty set (bottom of the domain).
    pub fn empty() -> Self {
        BoolVecSet::default()
    }

    /// A singleton set.
    pub fn singleton(v: BoolVec) -> Self {
        BoolVecSet {
            vecs: std::iter::once(v).collect(),
        }
    }

    /// Builds a set from Boolean vectors.
    pub fn from_vecs(vs: impl IntoIterator<Item = BoolVec>) -> Self {
        BoolVecSet {
            vecs: vs.into_iter().collect(),
        }
    }

    /// The full domain `𝔹^dim` (all `2^dim` vectors).
    pub fn top(dim: usize) -> Self {
        BoolVecSet::from_vecs(BoolVec::all(dim))
    }

    /// Membership test.
    pub fn contains(&self, v: &BoolVec) -> bool {
        self.vecs.contains(v)
    }

    /// Number of vectors in the set.
    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vecs.is_empty()
    }

    /// Iterates over the vectors in order.
    pub fn iter(&self) -> impl Iterator<Item = &BoolVec> {
        self.vecs.iter()
    }

    /// `⊕` on the Boolean domain: set union (§6.2).
    pub fn union(&self, other: &BoolVecSet) -> BoolVecSet {
        BoolVecSet {
            vecs: self.vecs.union(&other.vecs).cloned().collect(),
        }
    }

    /// `⟦Not⟧♯`: element-wise negation.
    pub fn not(&self) -> BoolVecSet {
        BoolVecSet::from_vecs(self.vecs.iter().map(|v| v.negate()))
    }

    /// `⟦And⟧♯`: all pairwise conjunctions.
    pub fn and(&self, other: &BoolVecSet) -> BoolVecSet {
        BoolVecSet::from_vecs(
            self.vecs
                .iter()
                .flat_map(|a| other.vecs.iter().map(move |b| a.and(b))),
        )
    }

    /// `⟦Or⟧♯`: all pairwise disjunctions.
    pub fn or(&self, other: &BoolVecSet) -> BoolVecSet {
        BoolVecSet::from_vecs(
            self.vecs
                .iter()
                .flat_map(|a| other.vecs.iter().map(move |b| a.or(b))),
        )
    }

    /// `true` iff `self ⊆ other`.
    pub fn subset_of(&self, other: &BoolVecSet) -> bool {
        self.vecs.is_subset(&other.vecs)
    }
}

impl fmt::Debug for BoolVecSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for BoolVecSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.vecs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<BoolVec> for BoolVecSet {
    fn from_iter<T: IntoIterator<Item = BoolVec>>(iter: T) -> Self {
        BoolVecSet::from_vecs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[bool]) -> BoolVec {
        BoolVec::from(bits.to_vec())
    }

    #[test]
    fn vector_operations() {
        let a = bv(&[true, false, true]);
        let b = bv(&[true, true, false]);
        assert_eq!(a.and(&b), bv(&[true, false, false]));
        assert_eq!(a.or(&b), bv(&[true, true, true]));
        assert_eq!(a.negate(), bv(&[false, true, false]));
    }

    #[test]
    fn example_6_1_not() {
        // ⟦Not⟧♯({(t,f),(t,t)}) = {(f,t),(f,f)}
        let bset = BoolVecSet::from_vecs([bv(&[true, false]), bv(&[true, true])]);
        let expected = BoolVecSet::from_vecs([bv(&[false, true]), bv(&[false, false])]);
        assert_eq!(bset.not(), expected);
    }

    #[test]
    fn example_6_4_fixed_point_step() {
        // {(t,f)} ⊕ {(t,t),(f,f)} ⊕ And(∅, ∅) = {(t,f),(t,t),(f,f)}
        let a = BoolVecSet::singleton(bv(&[true, false]));
        let b = BoolVecSet::from_vecs([bv(&[true, true]), bv(&[false, false])]);
        let and = BoolVecSet::empty().and(&BoolVecSet::empty());
        let result = a.union(&b).union(&and);
        assert_eq!(result.len(), 3);
        // the And of the result with itself adds nothing new: fixed point
        let step2 = a.union(&b).union(&result.and(&result));
        assert_eq!(step2, result);
    }

    #[test]
    fn all_enumerates_the_full_domain() {
        assert_eq!(BoolVec::all(0).len(), 1);
        assert_eq!(BoolVec::all(3).len(), 8);
        assert_eq!(BoolVecSet::top(2).len(), 4);
    }

    #[test]
    fn subset_and_union() {
        let a = BoolVecSet::singleton(bv(&[true]));
        let b = BoolVecSet::top(1);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert_eq!(a.union(&b), b);
    }
}
