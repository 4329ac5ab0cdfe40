//! Kleene iteration `ν ← F(ν)` from `0`: the reference Newton's method is
//! measured against (§4.3). Over semi-linear sets recursion makes it
//! diverge — `X = {3} ⊗ X ⊕ {0}` keeps growing — so it is bounded and
//! test-only; the library solves with [`crate::newton`].

use crate::equations::{EquationSystem, Solution};
use semilinear::SemiLinearSet;

/// Iterates for at most `max_iterations` rounds. The `exact` flag is set
/// only at a fixed point, which over semi-linear sets recursion never
/// reaches.
pub(crate) fn kleene(system: &EquationSystem, max_iterations: usize) -> Solution {
    let mut valuation = vec![SemiLinearSet::zero(); system.num_vars()];
    for iteration in 0..max_iterations {
        let next = system.eval_all(&valuation, true);
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
    use semilinear::IntVec;

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }

    #[test]
    fn diverges_on_recursive_semilinear_systems() {
        let mut sys = EquationSystem::new(1);
        // X = {3} ⊗ X ⊕ {0}: Kleene keeps producing {0}, {0,3}, {0,3,6}, …
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let sol = kleene(&sys, 8);
        assert!(!sol.exact, "Kleene iteration cannot converge here");
        assert_eq!(sol.iterations, 8);
        // it still produces a sound under-approximation of the limit
        assert!(sol.values[0].contains(&IntVec::from(vec![0])));
        assert!(sol.values[0].contains(&IntVec::from(vec![3])));
    }
}
