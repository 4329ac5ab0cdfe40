//! Linear sets `⟨u, {v₁,…,vₖ}⟩`.

use crate::vector::IntVec;
use logic::{Constraint, IlpProblem, IlpResult, LpRel};
use std::collections::BTreeSet;
use std::fmt;

/// A linear set `⟨base, generators⟩ = {base + Σ λᵢ·genᵢ | λᵢ ∈ ℕ}` (Def. 5.5).
///
/// Generators are kept sorted, deduplicated and free of zero vectors, so two
/// syntactically equal linear sets denote the same set of vectors.
///
/// # Example
/// ```
/// use semilinear::{IntVec, LinearSet};
/// let l = LinearSet::new(IntVec::from(vec![0]), vec![IntVec::from(vec![3])]);
/// assert!(l.contains(&IntVec::from(vec![6])));
/// assert!(!l.contains(&IntVec::from(vec![4])));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinearSet {
    base: IntVec,
    generators: Vec<IntVec>,
}

impl LinearSet {
    /// Creates a linear set, normalising the generator list.
    ///
    /// # Panics
    /// Panics if a generator's dimension differs from the base's.
    pub fn new(base: IntVec, generators: Vec<IntVec>) -> Self {
        let dim = base.dim();
        let mut set: BTreeSet<IntVec> = BTreeSet::new();
        for g in generators {
            assert_eq!(g.dim(), dim, "generator dimension mismatch");
            if !g.is_zero() {
                set.insert(g);
            }
        }
        LinearSet {
            base,
            generators: set.into_iter().collect(),
        }
    }

    /// The singleton linear set `{v}`.
    pub fn singleton(v: IntVec) -> Self {
        LinearSet {
            base: v,
            generators: Vec::new(),
        }
    }

    /// The base (offset) vector `u`.
    pub fn base(&self) -> &IntVec {
        &self.base
    }

    /// The generator vectors (period vectors) `v₁,…,vₖ`.
    pub fn generators(&self) -> &[IntVec] {
        &self.generators
    }

    /// The dimension of the vectors in this set.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Size metric used in the paper's complexity discussion: `|V| + 1`.
    pub fn size(&self) -> usize {
        self.generators.len() + 1
    }

    /// `true` when the set is the single vector `{base}`.
    pub fn is_singleton(&self) -> bool {
        self.generators.is_empty()
    }

    /// The Minkowski sum `⟨u₁+u₂, V₁∪V₂⟩` of two linear sets (the `⊗` of
    /// §5.3, restricted to single linear sets).
    pub fn extend(&self, other: &LinearSet) -> LinearSet {
        let mut gens = self.generators.clone();
        gens.extend(other.generators.iter().cloned());
        LinearSet::new(&self.base + &other.base, gens)
    }

    /// Zeroes out the components selected-out by `mask` in the base and every
    /// generator (`projS` of §6.2).
    pub fn project(&self, mask: &[bool]) -> LinearSet {
        LinearSet::new(
            self.base.project(mask),
            self.generators.iter().map(|g| g.project(mask)).collect(),
        )
    }

    /// Exact membership test via integer feasibility:
    /// `target ∈ ⟨u, V⟩` iff `∃ λ ≥ 0 . u + Σ λᵢvᵢ = target`.
    ///
    /// Two cases are answered before any ILP is built: `target − u = 0⃗`
    /// (every `λᵢ = 0`), and `target − u = c·v` for one generator `v` and an
    /// integer `c ≥ 1`. With at most one [spanning
    /// generator](LinearSet::spanning_generators) these are the only
    /// members; with more, every other case goes to an ILP with one `λ` per
    /// spanning generator. The monoid they span is that of `V`, so the
    /// answer is the one an ILP over all of `V` gives.
    ///
    /// If `target − u` or a factor `c` overflows `i64`, the answer is
    /// `false`: "not shown to be a member". Outside tests, only
    /// [`SemiLinearSet::prune`](crate::SemiLinearSet::prune) reaches it
    /// (through [`subsumed_by`](LinearSet::subsumed_by)), and prune then keeps
    /// the linear set, so the pruned set still denotes every vector of its
    /// input.
    pub fn contains(&self, target: &IntVec) -> bool {
        assert_eq!(target.dim(), self.dim(), "dimension mismatch");
        let Some(diff) = target
            .iter()
            .zip(self.base.iter())
            .map(|(t, u)| t.checked_sub(u))
            .collect::<Option<Vec<i64>>>()
        else {
            return false;
        };
        if diff.iter().all(|&d| d == 0) {
            return true;
        }
        for g in &self.generators {
            match positive_multiple(&diff, g) {
                Some(true) => return true,
                Some(false) => {}
                None => return false,
            }
        }
        let generators = self.spanning_generators();
        if generators.len() < 2 {
            return false;
        }
        let k = generators.len();
        let mut problem = IlpProblem::new(k);
        // one equality per dimension: Σ λ_i v_i[d] = target[d] - base[d]
        for (d, &rhs) in diff.iter().enumerate() {
            let coeffs: Vec<i64> = generators.iter().map(|g| g[d]).collect();
            problem.add(Constraint::new(coeffs, LpRel::Eq, rhs));
        }
        // λ ≥ 0
        for i in 0..k {
            let mut coeffs = vec![0i64; k];
            coeffs[i] = 1;
            problem.add(Constraint::new(coeffs, LpRel::Ge, 0));
        }
        matches!(problem.solve(), IlpResult::Sat(_))
    }

    /// The generators that are not a positive multiple `c·h` (`c ≥ 2`) of
    /// another generator `h`, in stored order. They span the same monoid
    /// `{Σ λᵢvᵢ | λᵢ ∈ ℕ}` as all the generators: a dropped `c·h` is `c`
    /// copies of `h`, and the shortest generator along each ray is kept.
    /// The ILP encodings of [`contains`](LinearSet::contains) and
    /// [`concretize_linear`](crate::concretize_linear) give a `λ` to these
    /// only; the stored set and its printed form keep every generator.
    pub fn spanning_generators(&self) -> Vec<&IntVec> {
        self.generators
            .iter()
            .filter(|g| {
                !self
                    .generators
                    .iter()
                    .any(|h| h != *g && positive_multiple(g.as_slice(), h) == Some(true))
            })
            .collect()
    }

    /// A sound (possibly incomplete) subsumption test: `self ⊆ other`.
    ///
    /// Returns `true` when every generator of `self` is also a generator of
    /// `other` and the base of `self` is a member of `other`. This is the
    /// "trivially subsumed" pruning used by naySL (§7). So a point
    /// `⟨u, ∅⟩` is subsumed by another point only when the two are equal,
    /// and a linear set with generators is never subsumed by a point.
    pub fn subsumed_by(&self, other: &LinearSet) -> bool {
        self.generators
            .iter()
            .all(|g| other.generators.binary_search(g).is_ok())
            && other.contains(&self.base)
    }

    /// Enumerates members of the set with coefficient sum at most `budget`
    /// (useful for tests and for sanity checks against brute force).
    pub fn enumerate(&self, budget: usize) -> Vec<IntVec> {
        let mut out = Vec::new();
        let k = self.generators.len();
        let mut lambda = vec![0usize; k];
        loop {
            let mut v = self.base.clone();
            for (i, &l) in lambda.iter().enumerate() {
                v = v + self.generators[i].scale(l as i64);
            }
            out.push(v);
            // next multi-index with sum ≤ budget
            let mut i = 0;
            loop {
                if i == k {
                    out.sort();
                    out.dedup();
                    return out;
                }
                lambda[i] += 1;
                if lambda.iter().sum::<usize>() <= budget {
                    break;
                }
                lambda[i] = 0;
                i += 1;
            }
        }
    }
}

/// Whether `diff = c·g` for an integer `c ≥ 1`; `None` when `c` does not
/// fit in `i64` (e.g. `diff = i64::MIN`, `g = −1`).
fn positive_multiple(diff: &[i64], g: &IntVec) -> Option<bool> {
    let mut factor: Option<i64> = None;
    for (&d, gd) in diff.iter().zip(g.iter()) {
        if gd == 0 {
            if d != 0 {
                return Some(false);
            }
            continue;
        }
        // `checked_rem` is `None` only for `i64::MIN % −1`, whose factor
        // 2⁶³ does not fit.
        if d.checked_rem(gd)? != 0 {
            return Some(false);
        }
        let c = d.checked_div(gd)?;
        if c < 1 || factor.is_some_and(|f| f != c) {
            return Some(false);
        }
        factor = Some(c);
    }
    Some(factor.is_some())
}

impl fmt::Debug for LinearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for LinearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {{", self.base)?;
        for (i, g) in self.generators.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, "}}⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(components: &[i64]) -> IntVec {
        IntVec::from(components.to_vec())
    }

    #[test]
    fn normalisation_drops_zero_and_duplicate_generators() {
        let l = LinearSet::new(v(&[1]), vec![v(&[0]), v(&[2]), v(&[2])]);
        assert_eq!(l.generators().len(), 1);
        assert_eq!(l.generators()[0], v(&[2]));
    }

    #[test]
    fn membership_one_dimensional() {
        // {0 + 3λ}
        let l = LinearSet::new(v(&[0]), vec![v(&[3])]);
        assert!(l.contains(&v(&[0])));
        assert!(l.contains(&v(&[9])));
        assert!(!l.contains(&v(&[4])));
        assert!(!l.contains(&v(&[-3])), "λ must be non-negative");
    }

    #[test]
    fn membership_two_dimensional() {
        // {(0,0) + λ(3,6)} — the solution of Example 5.7
        let l = LinearSet::new(v(&[0, 0]), vec![v(&[3, 6])]);
        assert!(l.contains(&v(&[3, 6])));
        assert!(l.contains(&v(&[9, 18])));
        assert!(!l.contains(&v(&[3, 5])));
        assert!(!l.contains(&v(&[6, 6])));
    }

    #[test]
    fn extend_is_minkowski_sum() {
        let a = LinearSet::new(v(&[1, 2]), vec![v(&[3, 4])]);
        let b = LinearSet::new(v(&[5, 6]), vec![v(&[7, 8])]);
        let c = a.extend(&b);
        assert_eq!(c.base(), &v(&[6, 8]));
        assert_eq!(c.generators().len(), 2);
    }

    #[test]
    fn projection_matches_example_6_1() {
        // projSL({⟨(1,2),{(3,4)}⟩}, (t,f)) = ⟨(1,0),{(3,0)}⟩
        let l = LinearSet::new(v(&[1, 2]), vec![v(&[3, 4])]);
        let p = l.project(&[true, false]);
        assert_eq!(p.base(), &v(&[1, 0]));
        assert_eq!(p.generators(), &[v(&[3, 0])]);
    }

    #[test]
    fn subsumption() {
        let small = LinearSet::new(v(&[3]), vec![v(&[3])]);
        let big = LinearSet::new(v(&[0]), vec![v(&[3])]);
        assert!(small.subsumed_by(&big));
        assert!(!big.subsumed_by(&small));
    }

    #[test]
    fn multiples_of_one_generator_are_members() {
        // zero components: g = (2,0,3) must leave the middle component at 0
        let l = LinearSet::new(v(&[1, 1, 1]), vec![v(&[2, 0, 3])]);
        assert!(l.contains(&v(&[1, 1, 1])), "λ = 0");
        assert!(l.contains(&v(&[5, 1, 7])));
        assert!(!l.contains(&v(&[5, 2, 7])));
        assert_eq!(positive_multiple(&[4, 0, 6], &v(&[2, 0, 3])), Some(true));
        assert_eq!(positive_multiple(&[4, 1, 6], &v(&[2, 0, 3])), Some(false));
        // negative generators: the factor must still be positive
        let neg = LinearSet::new(v(&[0, 0]), vec![v(&[-2, 3])]);
        assert!(neg.contains(&v(&[-6, 9])));
        assert!(!neg.contains(&v(&[6, -9])), "c = −3");
        assert_eq!(positive_multiple(&[-6, 9], &v(&[-2, 3])), Some(true));
        assert_eq!(positive_multiple(&[6, -9], &v(&[-2, 3])), Some(false));
        // unequal factors per component, and a component with c = 0
        assert_eq!(positive_multiple(&[4, 9], &v(&[2, 3])), Some(false));
        assert_eq!(positive_multiple(&[0, 6], &v(&[2, 3])), Some(false));
        assert_eq!(positive_multiple(&[3, 6], &v(&[2, 3])), Some(false));
        let l = LinearSet::new(v(&[0, 0]), vec![v(&[2, 3])]);
        assert!(!l.contains(&v(&[4, 9])));
        assert!(!l.contains(&v(&[0, 6])));
        // with a second generator the ILP still finds mixed combinations
        let two = LinearSet::new(v(&[0, 0]), vec![v(&[2, 3]), v(&[0, 3])]);
        assert!(two.contains(&v(&[4, 9])));
        assert!(two.contains(&v(&[0, 6])));
    }

    #[test]
    fn membership_overflow_is_not_membership() {
        // target − base = i64::MIN − i64::MAX overflows
        let l = LinearSet::new(v(&[i64::MAX]), vec![v(&[1])]);
        assert!(!l.contains(&v(&[i64::MIN])));
        assert!(!LinearSet::singleton(v(&[i64::MAX])).contains(&v(&[i64::MIN])));
        // i64::MIN = 2⁶³·(−1), a factor that does not fit in i64
        let neg = LinearSet::new(v(&[0]), vec![v(&[-1])]);
        assert_eq!(positive_multiple(&[i64::MIN], &v(&[-1])), None);
        assert!(!neg.contains(&v(&[i64::MIN])));
        assert!(neg.contains(&v(&[i64::MIN + 1])));
    }

    #[test]
    fn spanning_generators_drop_positive_multiples_only() {
        let l = LinearSet::new(
            v(&[0, 0]),
            vec![
                v(&[0, 45]),
                v(&[1, 1]),
                v(&[10, 10]),
                v(&[20, 20]),
                v(&[30, 30]),
                v(&[40, 40]),
            ],
        );
        assert_eq!(l.spanning_generators(), vec![&v(&[0, 45]), &v(&[1, 1])]);
        assert_eq!(
            l.generators().len(),
            6,
            "the stored set keeps every generator"
        );
        // a chain 4h, 2h, h keeps h; −h and (2,3) are not positive multiples
        let l = LinearSet::new(
            v(&[0, 0]),
            vec![v(&[4, 6]), v(&[2, 3]), v(&[-2, -3]), v(&[6, 9]), v(&[4, 7])],
        );
        assert_eq!(
            l.spanning_generators(),
            vec![&v(&[-2, -3]), &v(&[2, 3]), &v(&[4, 7])]
        );
        // h and 2h span only the multiples of h, answered without an ILP
        let l = LinearSet::new(v(&[1]), vec![v(&[2]), v(&[4])]);
        assert!(l.contains(&v(&[7])));
        assert!(!l.contains(&v(&[4])));
        // a factor of 2⁶³ does not fit: both generators stay
        let l = LinearSet::new(v(&[0]), vec![v(&[-1]), v(&[i64::MIN])]);
        assert_eq!(l.spanning_generators().len(), 2);
    }

    #[test]
    fn enumeration_agrees_with_membership() {
        let l = LinearSet::new(v(&[1, 1]), vec![v(&[2, 0]), v(&[0, 3])]);
        for member in l.enumerate(3) {
            assert!(l.contains(&member), "{member} should be a member");
        }
    }
}
