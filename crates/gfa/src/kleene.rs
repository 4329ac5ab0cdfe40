//! Kleene (chaotic) iteration for GFA equation systems.
//!
//! Kleene iteration converges to the least fixed point only on domains
//! without infinite ascending chains (§4.3). Over semi-linear sets it may
//! diverge — e.g. `X = {1} ⊗ X ⊕ {0}` keeps growing — so the iteration is
//! bounded and reports whether it converged. It is still useful
//!
//! * as the solver for finite-height instantiations, and
//! * as a baseline to compare Newton's method against (the paper's
//!   motivation for NPA).

use crate::equations::{EquationSystem, Solution};
use crate::semiring::Semiring;
use logic::stop_requested;

/// Solves the system by iterating `ν ← F(ν)` from `⊥ = 0` until a fixed
/// point is reached or `max_iterations` is exhausted.
///
/// The returned [`Solution::exact`] flag is `true` only when an actual fixed
/// point was reached (which, for monotone `F`, is then the least one). Once
/// the [`logic`] stop hook fires during an application of `F`, the
/// iteration stops with `exact: false`.
pub fn solve<S: Semiring>(
    semiring: &S,
    system: &EquationSystem<S::Elem>,
    max_iterations: usize,
) -> Solution<S::Elem> {
    let mut valuation: Vec<S::Elem> = vec![semiring.zero(); system.num_vars()];
    for iteration in 0..max_iterations {
        let next = system.eval_all(semiring, &valuation);
        // a cut-short F(ν) may equal ν without ν being a fixed point
        if stop_requested() {
            return Solution {
                values: valuation,
                iterations: iteration,
                exact: false,
            };
        }
        if next == valuation {
            return Solution {
                values: valuation,
                iterations: iteration,
                exact: true,
            };
        }
        valuation = next;
    }
    Solution {
        values: valuation,
        iterations: max_iterations,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::Monomial;
    use crate::semiring::SemiLinearSemiring;
    use semilinear::{IntVec, SemiLinearSet};

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn converges_on_non_recursive_systems() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(2);
        // X0 = {1} ⊗ X1,  X1 = {5} ⊕ {7}
        sys.add_monomial(0, Monomial::new(single(&[1]), vec![1]));
        sys.add_monomial(1, Monomial::constant(single(&[5])));
        sys.add_monomial(1, Monomial::constant(single(&[7])));
        let sol = solve(&sr, &sys, 10);
        assert!(sol.exact);
        assert!(sol.values[0].contains(&IntVec::from(vec![6])));
        assert!(sol.values[0].contains(&IntVec::from(vec![8])));
        assert!(!sol.values[0].contains(&IntVec::from(vec![5])));
    }

    #[test]
    fn diverges_on_recursive_semilinear_systems() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        // X = {3} ⊗ X ⊕ {0}: Kleene keeps producing {0}, {0,3}, {0,3,6}, …
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let sol = solve(&sr, &sys, 8);
        assert!(!sol.exact, "Kleene iteration cannot converge here");
        // it still produces a sound under-approximation of the limit
        assert!(sol.values[0].contains(&IntVec::from(vec![0])));
        assert!(sol.values[0].contains(&IntVec::from(vec![3])));
    }

    #[test]
    fn a_stopped_iteration_claims_no_fixed_point() {
        // X = X ⊕ {1}: a stopped F(0) evaluates no monomial, so it returns
        // 0 = ν, which must not pass for a fixed point.
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(SemiLinearSet::one(1), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[1])));
        let sol = logic::interruptible(|| true, || solve(&sr, &sys, 10));
        assert!(!sol.exact);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn zero_iterations_leaves_bottom() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::constant(single(&[1])));
        let sol = solve(&sr, &sys, 0);
        assert!(!sol.exact);
        assert!(sol.values[0].is_zero());
    }
}
