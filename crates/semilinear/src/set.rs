//! Semi-linear sets: finite unions of linear sets with the semiring
//! operations `⊕`, `⊗` and `⊛`.

use crate::linear::LinearSet;
use crate::vector::IntVec;
use logic::stop_requested;
use std::collections::BTreeSet;
use std::fmt;

/// A semi-linear set `⋃ᵢ ⟨uᵢ, Vᵢ⟩` (Def. 5.5).
///
/// Semi-linear sets of a fixed dimension form a commutative, idempotent,
/// ω-continuous semiring `(SL, ⊕, ⊗, 0, 1)` (Prop. 5.8):
///
/// * `⊕` is union ([`combine`](SemiLinearSet::combine)),
/// * `⊗` is Minkowski sum ([`extend`](SemiLinearSet::extend)),
/// * `0 = ∅` ([`zero`](SemiLinearSet::zero)), `1 = {⟨0⃗, ∅⟩}`
///   ([`one`](SemiLinearSet::one)),
/// * `⊛` is iterated addition ([`star`](SemiLinearSet::star)).
///
/// The representation is kept canonical (linear sets sorted and
/// deduplicated), and [`prune`](SemiLinearSet::prune) additionally removes
/// trivially-subsumed linear sets — the naySL optimisation of §7.
///
/// # Example
/// ```
/// use semilinear::{IntVec, LinearSet, SemiLinearSet};
/// // {3}⊛ ⊗ {0} = {0 + 3λ}  — footnote 3 of the paper
/// let three = SemiLinearSet::singleton(IntVec::from(vec![3]));
/// let zero = SemiLinearSet::singleton(IntVec::from(vec![0]));
/// let sol = three.star().extend(&zero);
/// assert!(sol.contains(&IntVec::from(vec![9])));
/// assert!(!sol.contains(&IntVec::from(vec![4])));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SemiLinearSet {
    parts: Vec<LinearSet>,
}

impl SemiLinearSet {
    /// The empty semi-linear set (the semiring `0`).
    pub fn zero() -> Self {
        SemiLinearSet { parts: Vec::new() }
    }

    /// The semiring `1` of dimension `dim`: `{⟨0⃗, ∅⟩}`.
    pub fn one(dim: usize) -> Self {
        SemiLinearSet::singleton(IntVec::zeros(dim))
    }

    /// The singleton set `{v}`.
    pub fn singleton(v: IntVec) -> Self {
        SemiLinearSet {
            parts: vec![LinearSet::singleton(v)],
        }
    }

    /// Builds a semi-linear set from linear sets.
    ///
    /// # Panics
    /// Panics if the linear sets do not all have the same dimension.
    pub fn from_linear_sets(parts: impl IntoIterator<Item = LinearSet>) -> Self {
        let mut set: BTreeSet<LinearSet> = BTreeSet::new();
        let mut dim: Option<usize> = None;
        for l in parts {
            match dim {
                None => dim = Some(l.dim()),
                Some(d) => assert_eq!(d, l.dim(), "mixed dimensions in semi-linear set"),
            }
            set.insert(l);
        }
        SemiLinearSet {
            parts: set.into_iter().collect(),
        }
    }

    /// The linear sets making up this semi-linear set.
    pub fn linear_sets(&self) -> &[LinearSet] {
        &self.parts
    }

    /// `true` when the set is empty (the semiring `0`).
    pub fn is_zero(&self) -> bool {
        self.parts.is_empty()
    }

    /// The dimension of the member vectors, or `None` for the empty set
    /// (which is dimension-polymorphic).
    pub fn dim(&self) -> Option<usize> {
        self.parts.first().map(|l| l.dim())
    }

    /// The size metric `Σᵢ (|Vᵢ| + 1)` of §5.3.
    pub fn size(&self) -> usize {
        self.parts.iter().map(|l| l.size()).sum()
    }

    /// `⊕`: set union.
    pub fn combine(&self, other: &SemiLinearSet) -> SemiLinearSet {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        SemiLinearSet::from_linear_sets(self.parts.iter().chain(&other.parts).cloned())
    }

    /// `⊗`: Minkowski sum, `{a + b | a ∈ self, b ∈ other}`.
    pub fn extend(&self, other: &SemiLinearSet) -> SemiLinearSet {
        if self.is_zero() || other.is_zero() {
            return SemiLinearSet::zero();
        }
        SemiLinearSet::from_linear_sets(
            self.parts
                .iter()
                .flat_map(|a| other.parts.iter().map(move |b| a.extend(b))),
        )
    }

    /// `⊛`: iterated addition `⊕ᵢ selfⁱ` (Eqn. (20)):
    /// `({⟨uᵢ,Vᵢ⟩}ᵢ)⊛ = {⟨0⃗, ⋃ᵢ({uᵢ} ∪ Vᵢ)⟩}`.
    pub fn star(&self) -> SemiLinearSet {
        let Some(dim) = self.dim() else {
            // 0⊛ = 1, but with no dimension information we return a
            // dimension-polymorphic 1 lazily: the empty sum is the zero
            // vector, so star of the empty set is {0⃗}. Callers always star
            // non-empty sets; we keep a 0-dimensional 1 as a safe default.
            return SemiLinearSet::one(0);
        };
        let mut gens: Vec<IntVec> = Vec::new();
        for l in &self.parts {
            gens.push(l.base().clone());
            gens.extend(l.generators().iter().cloned());
        }
        SemiLinearSet::from_linear_sets([LinearSet::new(IntVec::zeros(dim), gens)])
    }

    /// Exact membership test.
    pub fn contains(&self, target: &IntVec) -> bool {
        self.parts.iter().any(|l| l.contains(target))
    }

    /// Removes linear sets that are trivially subsumed by another linear set
    /// in the same semi-linear set (the naySL pruning optimisation of §7).
    ///
    /// The greedy sweep keeps the first representative of mutually-subsuming
    /// (i.e. equivalent) linear sets, so pruning never loses denoted vectors.
    /// Since the linear sets are deduplicated, a point `⟨u, ∅⟩` subsumes
    /// nothing and can be subsumed only by a linear set with generators (see
    /// [`LinearSet::subsumed_by`]). So the sweep keeps points in a list of
    /// their own: a point is tested against the kept linear sets with
    /// generators only, and a linear set with generators removes the kept
    /// points and the kept linear sets it subsumes. A set of points alone
    /// costs one pass. The sweep polls the [`logic`] stop hook once per
    /// linear set; once it fires, the remaining linear sets are kept
    /// unpruned, so a stopped prune still denotes exactly the input set.
    pub fn prune(&self) -> SemiLinearSet {
        let mut keep: Vec<LinearSet> = Vec::new();
        let mut points: Vec<LinearSet> = Vec::new();
        for (i, l) in self.parts.iter().enumerate() {
            if stop_requested() {
                keep.extend_from_slice(&self.parts[i..]);
                break;
            }
            if keep.iter().any(|other| l.subsumed_by(other)) {
                continue;
            }
            if l.is_singleton() {
                points.push(l.clone());
                continue;
            }
            points.retain(|p| !p.subsumed_by(l));
            keep.retain(|other| !other.subsumed_by(l));
            keep.push(l.clone());
        }
        SemiLinearSet::from_linear_sets(keep.into_iter().chain(points))
    }

    /// `projSL` (§6.2): projects every linear set onto the component mask.
    pub fn project(&self, mask: &[bool]) -> SemiLinearSet {
        SemiLinearSet::from_linear_sets(self.parts.iter().map(|l| l.project(mask)))
    }

    /// Enumerates members using at most `budget` total generator
    /// applications per linear set (for tests and cross-validation).
    pub fn enumerate(&self, budget: usize) -> Vec<IntVec> {
        let mut out: Vec<IntVec> = self
            .parts
            .iter()
            .flat_map(|l| l.enumerate(budget))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Semantic equality on a budgeted sample: used by property tests. Two
    /// sets are *sample-equivalent* if they agree on membership of all
    /// vectors enumerable from either side within the budget.
    pub fn sample_equivalent(&self, other: &SemiLinearSet, budget: usize) -> bool {
        self.enumerate(budget).iter().all(|v| other.contains(v))
            && other.enumerate(budget).iter().all(|v| self.contains(v))
    }
}

impl fmt::Debug for SemiLinearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SemiLinearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "∅");
        }
        write!(f, "{{")?;
        for (i, l) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<LinearSet> for SemiLinearSet {
    fn from_iter<T: IntoIterator<Item = LinearSet>>(iter: T) -> Self {
        SemiLinearSet::from_linear_sets(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(components: &[i64]) -> IntVec {
        IntVec::from(components.to_vec())
    }
    fn singleton(components: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(v(components))
    }

    #[test]
    fn identities() {
        let a = singleton(&[1, 2]);
        assert_eq!(a.combine(&SemiLinearSet::zero()), a);
        assert_eq!(SemiLinearSet::zero().combine(&a), a);
        assert_eq!(a.extend(&SemiLinearSet::one(2)), a);
        assert_eq!(SemiLinearSet::one(2).extend(&a), a);
        assert_eq!(a.extend(&SemiLinearSet::zero()), SemiLinearSet::zero());
    }

    #[test]
    fn combine_is_idempotent_and_commutative() {
        let a = singleton(&[1]);
        let b = singleton(&[2]);
        assert_eq!(a.combine(&a), a);
        assert_eq!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn extend_is_commutative() {
        let a = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1]), vec![v(&[2])])]);
        let b = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[5]), vec![v(&[7])])]);
        assert_eq!(a.extend(&b), b.extend(&a));
    }

    #[test]
    fn distributivity_on_examples() {
        let a = singleton(&[1]);
        let b = singleton(&[2]);
        let c = singleton(&[10]);
        let lhs = c.extend(&a.combine(&b));
        let rhs = c.extend(&a).combine(&c.extend(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn star_footnote_three() {
        // {3}⊛ ⊗ {0} = {0 + 3λ}
        let three = singleton(&[3]);
        let sol = three.star().extend(&singleton(&[0]));
        assert_eq!(sol.linear_sets().len(), 1);
        assert!(sol.contains(&v(&[0])));
        assert!(sol.contains(&v(&[3])));
        assert!(sol.contains(&v(&[300])));
        assert!(!sol.contains(&v(&[2])));
    }

    #[test]
    fn example_6_1_if_then_else_pieces() {
        // sl1 = {⟨(1,2),{(3,4)}⟩}, sl2 = {⟨(5,6),{(7,8)}⟩}
        let sl1 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 2]), vec![v(&[3, 4])])]);
        let sl2 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[5, 6]), vec![v(&[7, 8])])]);
        // projections for b = (t,f)
        let p1 = sl1.project(&[true, false]);
        let p2 = sl2.project(&[false, true]);
        let ite_tf = p1.extend(&p2);
        assert_eq!(
            ite_tf.linear_sets(),
            &[LinearSet::new(v(&[1, 6]), vec![v(&[3, 0]), v(&[0, 8])])]
        );
    }

    #[test]
    fn pruning_removes_subsumed() {
        let big = LinearSet::new(v(&[0]), vec![v(&[3])]);
        let small = LinearSet::new(v(&[3]), vec![v(&[3])]);
        let s = SemiLinearSet::from_linear_sets([big.clone(), small]);
        let pruned = s.prune();
        assert_eq!(pruned.linear_sets(), &[big]);
    }

    #[test]
    fn a_stopped_prune_keeps_the_rest_unpruned() {
        let big = LinearSet::new(v(&[0]), vec![v(&[3])]);
        let small = LinearSet::new(v(&[3]), vec![v(&[3])]);
        let s = SemiLinearSet::from_linear_sets([big, small]);
        assert_eq!(logic::interruptible(|| true, || s.prune()), s);
    }

    #[test]
    fn a_later_generator_set_removes_kept_points() {
        let p = |c: i64| LinearSet::singleton(v(&[c]));
        let down = LinearSet::new(v(&[3]), vec![v(&[-1])]);
        let evens = LinearSet::new(v(&[4]), vec![v(&[2])]);
        // sorted: ⟨1⟩ ⟨2⟩ ⟨3⟩ ⟨3,{-1}⟩ ⟨4,{2}⟩ ⟨5⟩ ⟨6⟩
        let s = SemiLinearSet::from_linear_sets([
            p(1),
            p(2),
            p(3),
            down.clone(),
            evens.clone(),
            p(5),
            p(6),
        ]);
        // `down` removes the kept points 1, 2 and 3; 6 ∈ `evens` is dropped
        // as it comes; 5 is in neither
        assert_eq!(s.prune().linear_sets(), &[down, evens, p(5)]);
    }

    #[test]
    fn a_stopped_prune_of_a_mixed_set_equals_its_input() {
        use std::cell::Cell;
        use std::rc::Rc;
        let p = |c: i64| LinearSet::singleton(v(&[c]));
        let s = SemiLinearSet::from_linear_sets([
            p(1),
            p(2),
            LinearSet::new(v(&[3]), vec![v(&[-1])]),
            p(4),
        ]);
        assert_eq!(s.prune().linear_sets().len(), 2);
        // the hook fires at the third poll: the two points already swept
        // and every later linear set are kept
        let polls = Rc::new(Cell::new(0));
        let counter = Rc::clone(&polls);
        let stopped = logic::interruptible(
            move || {
                counter.set(counter.get() + 1);
                counter.get() >= 3
            },
            || s.prune(),
        );
        assert_eq!(stopped, s);
        assert_eq!(polls.get(), 3);
        assert_eq!(logic::interruptible(|| true, || s.prune()), s);
    }

    #[test]
    fn enumeration_and_membership_agree() {
        let s = SemiLinearSet::from_linear_sets([
            LinearSet::new(v(&[0, 0]), vec![v(&[2, 4])]),
            LinearSet::new(v(&[1, 1]), vec![v(&[3, 6])]),
        ]);
        for m in s.enumerate(4) {
            assert!(s.contains(&m));
        }
        assert!(!s.contains(&v(&[1, 0])));
    }

    #[test]
    fn size_metric() {
        let s = SemiLinearSet::from_linear_sets([
            LinearSet::new(v(&[0]), vec![v(&[1]), v(&[2])]),
            LinearSet::new(v(&[5]), vec![]),
        ]);
        assert_eq!(s.size(), 4);
    }
}
