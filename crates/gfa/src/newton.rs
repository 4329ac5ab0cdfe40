//! Newtonian Program Analysis (NPA) over the commutative idempotent
//! ω-continuous semiring of semi-linear sets (§5.1, Esparza et al.).
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
//!
//! Every function takes the vector dimension `dim` (the number of
//! examples), which the semiring `1 = {⟨0⃗, ∅⟩}` and `0⊛ = 1` need, and a
//! `prune` flag that applies the subsumption pruning of §7 after each step.

use crate::equations::{normalize, EquationSystem, Solution};
use logic::stop_requested;
use semilinear::SemiLinearSet;

/// `a⊛`, with `0⊛ = 1` of dimension `dim`.
fn star(a: &SemiLinearSet, dim: usize) -> SemiLinearSet {
    if a.is_zero() {
        SemiLinearSet::one(dim)
    } else {
        a.star()
    }
}

/// Computes the star `A⊛ = I ⊕ A ⊕ A² ⊕ …` of a square matrix using
/// Lehmann's (Floyd–Warshall–Kleene) algorithm. The [`logic`] stop hook is
/// polled before every pivot and every cell update; once it fires the
/// result is partial.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn matrix_star(
    matrix: &[Vec<SemiLinearSet>],
    dim: usize,
    prune: bool,
) -> Vec<Vec<SemiLinearSet>> {
    let n = matrix.len();
    for row in matrix {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut current: Vec<Vec<SemiLinearSet>> = matrix.to_vec();
    'pivots: for k in 0..n {
        if stop_requested() {
            break;
        }
        let pivot_star = star(&current[k][k], dim);
        let mut next = current.clone();
        for (i, next_row) in next.iter_mut().enumerate() {
            for (j, cell) in next_row.iter_mut().enumerate() {
                if stop_requested() {
                    break 'pivots;
                }
                let through_k = current[i][k].extend(&pivot_star).extend(&current[k][j]);
                *cell = normalize(current[i][j].combine(&through_k), prune);
            }
        }
        current = next;
    }
    // add the identity
    let one = SemiLinearSet::one(dim);
    for (i, row) in current.iter_mut().enumerate() {
        row[i] = row[i].combine(&one);
    }
    current
}

/// Solves the linear system `Y = A·Y ⊕ b` exactly, returning `Y = A⊛·b`
/// (partial once the stop hook fires, see [`matrix_star`]).
pub fn solve_linear(
    matrix: &[Vec<SemiLinearSet>],
    rhs: &[SemiLinearSet],
    dim: usize,
    prune: bool,
) -> Vec<SemiLinearSet> {
    let star = matrix_star(matrix, dim, prune);
    star.iter()
        .map(|row| {
            let products: Vec<SemiLinearSet> =
                row.iter().zip(rhs).map(|(a, b)| a.extend(b)).collect();
            let union = SemiLinearSet::from_linear_sets(
                products.iter().flat_map(|p| p.linear_sets()).cloned(),
            );
            normalize(union, prune)
        })
        .collect()
}

/// The formal differential `DF|_ν` of the system, as a matrix: entry
/// `(i, j)` is `⊕` over every occurrence of variable `j` in a monomial of
/// `F_i`, of the monomial with that occurrence removed and all remaining
/// variables evaluated at `ν` (commutativity makes the order irrelevant).
fn differential(
    system: &EquationSystem,
    valuation: &[SemiLinearSet],
    prune: bool,
) -> Vec<Vec<SemiLinearSet>> {
    let n = system.num_vars();
    let mut matrix = vec![vec![SemiLinearSet::zero(); n]; n];
    for (i, row) in matrix.iter_mut().enumerate() {
        for m in system.monomials(i) {
            for (pos, &var) in m.vars.iter().enumerate() {
                // coefficient ⊗ Π_{q ≠ pos} ν[vars[q]]
                let mut term = m.coefficient.clone();
                for (q, &other) in m.vars.iter().enumerate() {
                    if q != pos {
                        term = term.extend(&valuation[other]);
                    }
                }
                row[var] = normalize(row[var].combine(&term), prune);
            }
        }
    }
    matrix
}

/// Solves the equation system over semi-linear sets of dimension `dim`
/// with Newton's method, pruning after each step when `prune` is set.
///
/// Semi-linear sets form a commutative idempotent ω-continuous semiring,
/// so the result after `num_vars` iterations is the least fixed point and
/// [`Solution::exact`] is `true`; the solver stops earlier if an iteration
/// leaves the valuation unchanged. The [`logic`] stop hook is polled
/// before every iteration and inside its matrix star (see
/// [`matrix_star`]): once it fires the solver returns the current
/// under-approximation with `exact: false`.
pub fn solve(system: &EquationSystem, dim: usize, prune: bool) -> Solution {
    let n = system.num_vars();
    if n == 0 {
        return Solution {
            values: Vec::new(),
            iterations: 0,
            exact: true,
        };
    }
    // ν⁰ = F(0)
    let bottom = vec![SemiLinearSet::zero(); n];
    let mut valuation = system.eval_all(&bottom, prune);
    let mut iterations = 0;
    let mut exact = true;
    for _ in 0..n {
        if stop_requested() {
            exact = false;
            break;
        }
        iterations += 1;
        let matrix = differential(system, &valuation, prune);
        let rhs = system.eval_all(&valuation, prune);
        let delta = solve_linear(&matrix, &rhs, dim, prune);
        if stop_requested() {
            // A cut-short star must never pass for convergence.
            exact = false;
            break;
        }
        let next: Vec<SemiLinearSet> = valuation
            .iter()
            .zip(&delta)
            .map(|(old, d)| normalize(old.combine(d), prune))
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
    use crate::kleene::kleene;
    use semilinear::IntVec;

    fn single(v: &[i64]) -> SemiLinearSet {
        SemiLinearSet::singleton(IntVec::from(v.to_vec()))
    }
    fn vec1(v: i64) -> IntVec {
        IntVec::from(vec![v])
    }

    #[test]
    fn one_by_one_matrix_star() {
        let star = matrix_star(&[vec![single(&[3])]], 1, true);
        // ({3})⊛ = {0 + 3λ}
        assert!(star[0][0].contains(&vec1(0)));
        assert!(star[0][0].contains(&vec1(9)));
        assert!(!star[0][0].contains(&vec1(4)));
    }

    #[test]
    fn the_star_of_zero_is_one() {
        // 0⊛ = 1 needs the dimension, which the empty set does not carry.
        let star = matrix_star(&[vec![SemiLinearSet::zero()]], 2, true);
        assert_eq!(star, vec![vec![SemiLinearSet::one(2)]]);
    }

    #[test]
    fn two_by_two_matrix_star_mixes_paths() {
        // A = [[0, {1}], [{2}, 0]]: paths alternate between the two states,
        // so A*[0][0] must contain {0, 3, 6, …} (each round trip adds 1+2).
        let z = SemiLinearSet::zero();
        let a = vec![vec![z.clone(), single(&[1])], vec![single(&[2]), z]];
        let star = matrix_star(&a, 1, true);
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
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let sol = solve(&sys, 1, true);
        assert!(sol.exact);
        assert!(sol.values[0].contains(&vec1(0)));
        assert!(sol.values[0].contains(&vec1(3)));
        assert!(sol.values[0].contains(&vec1(300)));
        assert!(!sol.values[0].contains(&vec1(4)));
        assert!(!sol.values[0].contains(&vec1(-3)));
    }

    #[test]
    fn a_stopped_solve_is_an_inexact_under_approximation() {
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let (sol, stratified) = logic::interruptible(
            || true,
            || {
                (
                    solve(&sys, 1, true),
                    crate::strata::solve_stratified(&sys, 1, true),
                )
            },
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
        let mut sys = EquationSystem::new(4);
        let (start, s1, s2, s3) = (0, 1, 2, 3);
        sys.add_monomial(start, Monomial::new(SemiLinearSet::one(2), vec![s1, start]));
        sys.add_monomial(start, Monomial::constant(single(&[0, 0])));
        sys.add_monomial(s1, Monomial::new(single(&[1, 2]), vec![s2]));
        sys.add_monomial(s2, Monomial::new(single(&[1, 2]), vec![s3]));
        sys.add_monomial(s3, Monomial::constant(single(&[1, 2])));
        let sol = solve(&sys, 2, true);
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
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(SemiLinearSet::one(1), vec![0, 0]));
        sys.add_monomial(0, Monomial::constant(single(&[1])));
        let sol = solve(&sys, 1, true);
        for v in 1..6 {
            assert!(sol.values[0].contains(&vec1(v)), "missing {v}");
        }
        assert!(!sol.values[0].contains(&vec1(0)));
        assert!(!sol.values[0].contains(&vec1(-1)));
    }

    #[test]
    fn newton_beats_kleene_on_recursion() {
        let mut sys = EquationSystem::new(1);
        sys.add_monomial(0, Monomial::new(single(&[3]), vec![0]));
        sys.add_monomial(0, Monomial::constant(single(&[0])));
        let kleene = kleene(&sys, 20);
        let newton = solve(&sys, 1, true);
        // Kleene keeps producing {0}, {0, 3}, {0, 3, 6}, … and never
        // converges; Newton reaches the limit {0 + 3λ}.
        assert!(!kleene.exact);
        assert!(kleene.values[0].contains(&vec1(3)));
        assert!(newton.exact);
        // Kleene's under-approximation is contained in Newton's answer
        for ls in kleene.values[0].linear_sets() {
            assert!(newton.values[0].contains(ls.base()));
        }
    }

    #[test]
    fn empty_system() {
        let sys = EquationSystem::new(0);
        let sol = solve(&sys, 1, true);
        assert!(sol.exact);
        assert!(sol.values.is_empty());
    }
}
