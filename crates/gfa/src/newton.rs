//! Newtonian Program Analysis (NPA) over commutative idempotent
//! ω-continuous semirings (§5.1, Esparza et al.).
//!
//! For such semirings the Newton sequence
//!
//! ```text
//! ν⁰ = F(0),   νⁱ⁺¹ = νⁱ ⊕ (DF|_{νⁱ})⊛ (F(νⁱ))
//! ```
//!
//! reaches the least fixed point of `X = F(X)` after at most `|N|` iterations
//! (Lemma 5.2 / [10, Thm. 7.7]), even when the domain has infinite ascending
//! chains — which is exactly the situation for semi-linear sets and recursive
//! LIA⁺ grammars.
//!
//! Each iteration solves the linearised system `Y = A·Y ⊕ b` where `A` is the
//! formal differential of `F` evaluated at the current approximation; the
//! linear system is solved exactly by the matrix-star construction
//! ([`matrix_star`], Lehmann's algorithm).

use crate::equations::{EquationSystem, Solution};
use crate::semiring::Semiring;
use logic::stop_requested;

/// Computes the star `A⊛ = I ⊕ A ⊕ A² ⊕ …` of a square matrix over the
/// semiring using Lehmann's (Floyd–Warshall–Kleene) algorithm. The
/// [`logic`] stop hook is polled before every pivot and every cell update;
/// once it fires the result is partial.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn matrix_star<S: Semiring>(semiring: &S, matrix: &[Vec<S::Elem>]) -> Vec<Vec<S::Elem>> {
    let n = matrix.len();
    for row in matrix {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut current: Vec<Vec<S::Elem>> = matrix.to_vec();
    'pivots: for k in 0..n {
        if stop_requested() {
            break;
        }
        let pivot_star = semiring.star(&current[k][k]);
        let mut next = current.clone();
        for (i, next_row) in next.iter_mut().enumerate() {
            for (j, cell) in next_row.iter_mut().enumerate() {
                if stop_requested() {
                    break 'pivots;
                }
                let through_k = semiring.extend(
                    &semiring.extend(&current[i][k], &pivot_star),
                    &current[k][j],
                );
                *cell = semiring.normalize(semiring.combine(&current[i][j], &through_k));
            }
        }
        current = next;
    }
    // add the identity
    for (i, row) in current.iter_mut().enumerate() {
        row[i] = semiring.combine(&row[i], &semiring.one());
    }
    current
}

/// Solves the linear system `Y = A·Y ⊕ b` exactly, returning `Y = A⊛·b`
/// (partial once the stop hook fires, see [`matrix_star`]).
pub fn solve_linear<S: Semiring>(
    semiring: &S,
    matrix: &[Vec<S::Elem>],
    rhs: &[S::Elem],
) -> Vec<S::Elem> {
    let star = matrix_star(semiring, matrix);
    star.iter()
        .map(|row| {
            let mut acc = semiring.zero();
            for (a, b) in row.iter().zip(rhs) {
                acc = semiring.combine(&acc, &semiring.extend(a, b));
            }
            semiring.normalize(acc)
        })
        .collect()
}

/// The formal differential `DF|_ν` of the system, as a matrix: entry
/// `(i, j)` is `⊕` over every occurrence of variable `j` in a monomial of
/// `F_i`, of the monomial with that occurrence removed and all remaining
/// variables evaluated at `ν` (commutativity makes the order irrelevant).
fn differential<S: Semiring>(
    semiring: &S,
    system: &EquationSystem<S::Elem>,
    valuation: &[S::Elem],
) -> Vec<Vec<S::Elem>> {
    let n = system.num_vars();
    let mut matrix = vec![vec![semiring.zero(); n]; n];
    for (i, row) in matrix.iter_mut().enumerate() {
        for m in system.monomials(i) {
            for (pos, &var) in m.vars.iter().enumerate() {
                // coefficient ⊗ Π_{q ≠ pos} ν[vars[q]]
                let mut term = m.coefficient.clone();
                for (q, &other) in m.vars.iter().enumerate() {
                    if q != pos {
                        term = semiring.extend(&term, &valuation[other]);
                    }
                }
                row[var] = semiring.normalize(semiring.combine(&row[var], &term));
            }
        }
    }
    matrix
}

/// Solves the equation system with Newton's method.
///
/// For commutative idempotent ω-continuous semirings the result after
/// `num_vars` iterations is the least fixed point, so [`Solution::exact`] is
/// `true`; the solver stops earlier if an iteration leaves the valuation
/// unchanged. The [`logic`] stop hook is polled before every iteration
/// and inside its matrix star (see [`matrix_star`]): once it fires the
/// solver returns the current under-approximation with `exact: false`.
pub fn solve<S: Semiring>(semiring: &S, system: &EquationSystem<S::Elem>) -> Solution<S::Elem> {
    let n = system.num_vars();
    if n == 0 {
        return Solution {
            values: Vec::new(),
            iterations: 0,
            exact: true,
        };
    }
    // ν⁰ = F(0)
    let bottom = vec![semiring.zero(); n];
    let mut valuation = system.eval_all(semiring, &bottom);
    let mut iterations = 0;
    let mut exact = true;
    for _ in 0..n {
        if stop_requested() {
            exact = false;
            break;
        }
        iterations += 1;
        let matrix = differential(semiring, system, &valuation);
        let rhs = system.eval_all(semiring, &valuation);
        let delta = solve_linear(semiring, &matrix, &rhs);
        if stop_requested() {
            // A cut-short star must never pass for convergence.
            exact = false;
            break;
        }
        let next: Vec<S::Elem> = valuation
            .iter()
            .zip(&delta)
            .map(|(old, d)| semiring.normalize(semiring.combine(old, d)))
            .collect();
        if next == valuation {
            break;
        }
        valuation = next;
    }
    Solution {
        values: valuation,
        iterations,
        exact,
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
    fn vec1(v: i64) -> IntVec {
        IntVec::from(vec![v])
    }

    #[test]
    fn one_by_one_matrix_star() {
        let sr = SemiLinearSemiring::new(1);
        let star = matrix_star(&sr, &[vec![single(&[3])]]);
        // ({3})⊛ = {0 + 3λ}
        assert!(star[0][0].contains(&vec1(0)));
        assert!(star[0][0].contains(&vec1(9)));
        assert!(!star[0][0].contains(&vec1(4)));
    }

    #[test]
    fn two_by_two_matrix_star_mixes_paths() {
        let sr = SemiLinearSemiring::new(1);
        // A = [[0, {1}], [{2}, 0]]: paths alternate between the two states,
        // so A*[0][0] must contain {0, 3, 6, …} (each round trip adds 1+2).
        let z = sr.zero();
        let a = vec![vec![z.clone(), single(&[1])], vec![single(&[2]), z]];
        let star = matrix_star(&sr, &a);
        assert!(star[0][0].contains(&vec1(0)));
        assert!(star[0][0].contains(&vec1(3)));
        assert!(star[0][0].contains(&vec1(6)));
        assert!(!star[0][0].contains(&vec1(2)));
        // one-step path 0 → 1 plus round trips
        assert!(star[0][1].contains(&vec1(1)));
        assert!(star[0][1].contains(&vec1(4)));
    }

    #[test]
    fn paper_equation_three() {
        // X = {3} ⊗ X ⊕ {0} over one example (Eqn. (3)); solution {0 + 3λ}.
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let sol = solve(&sr, &sys);
        assert!(sol.exact);
        assert!(sol.values[0].contains(&vec1(0)));
        assert!(sol.values[0].contains(&vec1(3)));
        assert!(sol.values[0].contains(&vec1(300)));
        assert!(!sol.values[0].contains(&vec1(4)));
        assert!(!sol.values[0].contains(&vec1(-3)));
    }

    #[test]
    fn a_stopped_solve_is_an_inexact_under_approximation() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let (sol, stratified) = logic::interruptible(
            || true,
            || (solve(&sr, &sys), crate::strata::solve_stratified(&sr, &sys)),
        );
        assert!(!sol.exact);
        assert_eq!(sol.iterations, 0);
        // ν⁰ = F(0) is cut short before its first monomial: an empty
        // under-approximation, none of the recursion.
        assert!(sol.values[0].is_zero());
        assert!(!stratified.exact);
    }

    #[test]
    fn example_5_7_two_examples() {
        // The G1 system with E = ⟨1, 2⟩ (Example 5.7):
        //   Start = S1 ⊗ Start ⊕ {(0,0)}
        //   S1 = S2 ⊗ {(1,2)}
        //   S2 = S3 ⊗ {(1,2)}
        //   S3 = {(1,2)}
        let sr = SemiLinearSemiring::new(2);
        let mut sys = EquationSystem::new(4);
        let (start, s1, s2, s3) = (0, 1, 2, 3);
        sys.add_monomial(start, Monomial::new(SemiLinearSet::one(2), vec![s1, start]));
        sys.add_monomial(start, Monomial::constant(single(&[0, 0])));
        sys.add_monomial(s1, Monomial::new(single(&[1, 2]), vec![s2]));
        sys.add_monomial(s2, Monomial::new(single(&[1, 2]), vec![s3]));
        sys.add_monomial(s3, Monomial::constant(single(&[1, 2])));
        let sol = solve(&sr, &sys);
        // nG(S1) = {(3,6)}, nG(S2) = {(2,4)}, nG(S3) = {(1,2)}
        assert_eq!(sol.values[s3], single(&[1, 2]));
        assert_eq!(sol.values[s2], single(&[2, 4]));
        assert_eq!(sol.values[s1], single(&[3, 6]));
        // nG(Start) = {(0,0) + λ(3,6)}
        let start_val = &sol.values[start];
        assert!(start_val.contains(&IntVec::from(vec![0, 0])));
        assert!(start_val.contains(&IntVec::from(vec![3, 6])));
        assert!(start_val.contains(&IntVec::from(vec![9, 18])));
        assert!(!start_val.contains(&IntVec::from(vec![3, 5])));
        assert!(!start_val.contains(&IntVec::from(vec![4, 8])));
    }

    #[test]
    fn quadratic_system() {
        // X = X ⊗ X ⊕ {1}: the set of values {1, 2, 3, …} (all positive
        // counts of leaves of binary trees). The exact least solution over
        // semi-linear sets is {1 + λ1}.
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(SemiLinearSet::one(1), vec![0, 0]));
        sys.add_monomial(0, Monomial::constant(single(&[1])));
        let sol = solve(&sr, &sys);
        for v in 1..6 {
            assert!(sol.values[0].contains(&vec1(v)), "missing {v}");
        }
        assert!(!sol.values[0].contains(&vec1(0)));
        assert!(!sol.values[0].contains(&vec1(-1)));
    }

    #[test]
    fn newton_beats_kleene_on_recursion() {
        let sr = SemiLinearSemiring::new(1);
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let kleene = crate::kleene::solve(&sr, &sys, 20);
        let newton = solve(&sr, &sys);
        assert!(!kleene.exact);
        assert!(newton.exact);
        // Kleene's under-approximation is contained in Newton's answer
        for ls in kleene.values[0].linear_sets() {
            assert!(newton.values[0].contains(ls.base()));
        }
    }

    #[test]
    fn empty_system() {
        let sr = SemiLinearSemiring::new(1);
        let sys: EquationSystem<SemiLinearSet> = EquationSystem::new(0);
        let sol = solve(&sr, &sys);
        assert!(sol.exact);
        assert!(sol.values.is_empty());
    }
}
