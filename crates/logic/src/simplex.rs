//! A small exact (rational) two-phase simplex solver.
//!
//! This is the linear-programming engine behind the integer feasibility
//! checks of the [`Solver`](crate::Solver). It works on dense tableaux with
//! [`Rational`] entries and uses Bland's rule, so it always terminates and
//! never suffers from floating-point error.

use crate::interrupt::stop_requested;
use crate::rational::Rational;

/// The relation of a linear constraint handed to the LP solver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpRel {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Outcome of an LP solve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LpResult {
    /// The constraint system has no rational solution.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The solve was cut short by an [`interruptible`](crate::interruptible)
    /// scope's stop hook.
    Interrupted,
    /// An optimal solution; `point[i]` is the value of structural variable `i`.
    Optimal {
        /// Optimal objective value.
        objective: Rational,
        /// Values of the structural variables.
        point: Vec<Rational>,
    },
}

impl LpResult {
    /// The witness point, if the solve produced one.
    pub fn point(&self) -> Option<&[Rational]> {
        match self {
            LpResult::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }
}

/// An LP over `num_vars` *free* (unrestricted in sign) structural variables.
///
/// # Example
/// ```
/// use logic::{Simplex, Rational, LpResult, LpRel};
/// let mut lp = Simplex::new(1);
/// // x ≥ 2  ∧  x ≤ 5, maximize x  →  5
/// lp.add_constraint(vec![Rational::from_int(1)], LpRel::Ge, Rational::from_int(2));
/// lp.add_constraint(vec![Rational::from_int(1)], LpRel::Le, Rational::from_int(5));
/// match lp.maximize(&[Rational::from_int(1)]) {
///     LpResult::Optimal { objective, .. } => assert_eq!(objective, Rational::from_int(5)),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Simplex {
    num_vars: usize,
    constraints: Vec<(Vec<Rational>, LpRel, Rational)>,
}

struct Tableau {
    /// rows[i] = coefficients over all columns, length = ncols
    rows: Vec<Vec<Rational>>,
    /// right-hand sides, all non-negative
    rhs: Vec<Rational>,
    /// basis[i] = column index basic in row i
    basis: Vec<usize>,
    ncols: usize,
}

impl Tableau {
    /// Pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.rows[row][col];
        debug_assert!(!piv.is_zero());
        let inv = piv.recip();
        for c in 0..self.ncols {
            self.rows[row][c] = self.rows[row][c] * inv;
        }
        self.rhs[row] = self.rhs[row] * inv;
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col];
            if factor.is_zero() {
                continue;
            }
            for c in 0..self.ncols {
                let delta = self.rows[row][c] * factor;
                self.rows[r][c] = self.rows[r][c] - delta;
            }
            self.rhs[r] = self.rhs[r] - self.rhs[row] * factor;
        }
        self.basis[row] = col;
    }

    /// Runs the simplex loop maximizing `obj` (length ncols) with Bland's
    /// rule. `allowed` marks columns permitted to enter the basis. Polls
    /// the stop hook before every pivot. Returns the objective value, or
    /// how the run ended without one (`Unbounded` or `Interrupted`).
    fn optimize(&mut self, obj: &[Rational], allowed: &[bool]) -> Result<Rational, LpResult> {
        loop {
            if stop_requested() {
                return Err(LpResult::Interrupted);
            }
            // reduced costs: c_j - c_B B^{-1} A_j. We recompute from scratch:
            // since rows are kept in canonical (basis = identity) form, the
            // reduced cost of column j is obj[j] - Σ_i obj[basis[i]] * rows[i][j].
            let mut entering = None;
            for j in 0..self.ncols {
                if !allowed[j] || self.basis.contains(&j) {
                    continue;
                }
                let mut red = obj[j];
                for (i, &b) in self.basis.iter().enumerate() {
                    red = red - obj[b] * self.rows[i][j];
                }
                if red.is_positive() {
                    entering = Some(j);
                    break; // Bland: smallest index
                }
            }
            let Some(col) = entering else {
                // optimal; compute objective value
                let mut val = Rational::ZERO;
                for (i, &b) in self.basis.iter().enumerate() {
                    val += obj[b] * self.rhs[i];
                }
                return Ok(val);
            };
            // ratio test
            let mut leaving: Option<(usize, Rational)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][col];
                if a.is_positive() {
                    let ratio = self.rhs[i] / a;
                    match &leaving {
                        None => leaving = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < *lr || (ratio == *lr && self.basis[i] < self.basis[*li]) {
                                leaving = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return Err(LpResult::Unbounded);
            };
            self.pivot(row, col);
        }
    }
}

impl Simplex {
    /// Creates an LP with `num_vars` free structural variables and no
    /// constraints.
    pub fn new(num_vars: usize) -> Self {
        Simplex {
            num_vars,
            constraints: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds the constraint `Σ coeffs[i]·xᵢ REL rhs`.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != num_vars`.
    pub fn add_constraint(&mut self, coeffs: Vec<Rational>, rel: LpRel, rhs: Rational) {
        assert_eq!(
            coeffs.len(),
            self.num_vars,
            "coefficient vector length mismatch"
        );
        self.constraints.push((coeffs, rel, rhs));
    }

    /// Finds any rational solution of the constraints; `None` when there
    /// is none, or when an [`interruptible`](crate::interruptible) scope
    /// stopped the solve.
    pub fn feasible_point(&self) -> Option<Vec<Rational>> {
        match self.maximize(&vec![Rational::ZERO; self.num_vars]) {
            LpResult::Optimal { point, .. } => Some(point),
            LpResult::Unbounded => unreachable!("zero objective cannot be unbounded"),
            LpResult::Infeasible | LpResult::Interrupted => None,
        }
    }

    /// Maximizes `Σ objective[i]·xᵢ` subject to the constraints.
    pub fn maximize(&self, objective: &[Rational]) -> LpResult {
        assert_eq!(objective.len(), self.num_vars, "objective length mismatch");
        // Column layout: for each structural variable x_j we use two
        // non-negative columns p_j (=2j) and q_j (=2j+1) with x_j = p_j - q_j;
        // then one slack/surplus column per inequality row; then one
        // artificial column per row.
        let n = self.num_vars;
        let m = self.constraints.len();
        let slack_base = 2 * n;
        let num_slacks = self
            .constraints
            .iter()
            .filter(|(_, rel, _)| *rel != LpRel::Eq)
            .count();
        let art_base = slack_base + num_slacks;
        let ncols = art_base + m;

        let mut rows = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_idx = 0;
        for (i, (coeffs, rel, b)) in self.constraints.iter().enumerate() {
            let mut row = vec![Rational::ZERO; ncols];
            for j in 0..n {
                row[2 * j] = coeffs[j];
                row[2 * j + 1] = -coeffs[j];
            }
            match rel {
                LpRel::Le => {
                    row[slack_base + slack_idx] = Rational::ONE;
                    slack_idx += 1;
                }
                LpRel::Ge => {
                    row[slack_base + slack_idx] = -Rational::ONE;
                    slack_idx += 1;
                }
                LpRel::Eq => {}
            }
            let mut b = *b;
            if b.is_negative() {
                for c in row.iter_mut() {
                    *c = -*c;
                }
                b = -b;
            }
            row[art_base + i] = Rational::ONE;
            rows.push(row);
            rhs.push(b);
            basis.push(art_base + i);
        }

        let mut tab = Tableau {
            rows,
            rhs,
            basis,
            ncols,
        };

        // Phase 1: maximize -(sum of artificials).
        let mut phase1_obj = vec![Rational::ZERO; ncols];
        for slot in phase1_obj.iter_mut().skip(art_base) {
            *slot = -Rational::ONE;
        }
        let allowed_all = vec![true; ncols];
        let val = match tab.optimize(&phase1_obj, &allowed_all) {
            Ok(val) => val,
            Err(LpResult::Unbounded) => unreachable!("phase-1 objective is bounded above by 0"),
            Err(interrupted) => return interrupted,
        };
        if val.is_negative() {
            return LpResult::Infeasible;
        }
        // Pivot any artificial still in the basis out if possible.
        for i in 0..tab.rows.len() {
            if tab.basis[i] >= art_base {
                if let Some(col) = (0..art_base).find(|&c| !tab.rows[i][c].is_zero()) {
                    tab.pivot(i, col);
                }
            }
        }

        // Phase 2: maximize the real objective with artificial columns frozen.
        let mut allowed = vec![true; ncols];
        for a in allowed.iter_mut().skip(art_base) {
            *a = false;
        }
        let mut phase2_obj = vec![Rational::ZERO; ncols];
        for j in 0..n {
            phase2_obj[2 * j] = objective[j];
            phase2_obj[2 * j + 1] = -objective[j];
        }
        let objective_value = match tab.optimize(&phase2_obj, &allowed) {
            Ok(val) => val,
            Err(end) => return end,
        };

        // Extract structural variable values.
        let mut point = vec![Rational::ZERO; n];
        for (i, &b) in tab.basis.iter().enumerate() {
            if b < 2 * n {
                let var = b / 2;
                if b % 2 == 0 {
                    point[var] += tab.rhs[i];
                } else {
                    point[var] = point[var] - tab.rhs[i];
                }
            }
        }
        LpResult::Optimal {
            objective: objective_value,
            point,
        }
    }

    /// Minimizes the objective (by maximizing its negation).
    pub fn minimize(&self, objective: &[Rational]) -> LpResult {
        let neg: Vec<Rational> = objective.iter().map(|c| -*c).collect();
        match self.maximize(&neg) {
            LpResult::Optimal { objective, point } => LpResult::Optimal {
                objective: -objective,
                point,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LE: LpRel = LpRel::Le;
    const GE: LpRel = LpRel::Ge;
    const EQ: LpRel = LpRel::Eq;

    fn r(v: i64) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn bounded_maximization() {
        // max x + y s.t. x + y <= 4, x <= 3, y <= 2  → 4
        let mut lp = Simplex::new(2);
        lp.add_constraint(vec![r(1), r(1)], LE, r(4));
        lp.add_constraint(vec![r(1), r(0)], LE, r(3));
        lp.add_constraint(vec![r(0), r(1)], LE, r(2));
        match lp.maximize(&[r(1), r(1)]) {
            LpResult::Optimal { objective, point } => {
                assert_eq!(objective, r(4));
                assert_eq!(point[0] + point[1], r(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_system() {
        // x >= 3 and x <= 1
        let mut lp = Simplex::new(1);
        lp.add_constraint(vec![r(1)], GE, r(3));
        lp.add_constraint(vec![r(1)], LE, r(1));
        assert_eq!(lp.maximize(&[r(0)]), LpResult::Infeasible);
        assert!(lp.feasible_point().is_none());
    }

    #[test]
    fn unbounded_objective() {
        // x >= 0, maximize x
        let mut lp = Simplex::new(1);
        lp.add_constraint(vec![r(1)], GE, r(0));
        assert_eq!(lp.maximize(&[r(1)]), LpResult::Unbounded);
    }

    #[test]
    fn negative_and_free_variables() {
        // x <= -5, maximize x  → -5
        let mut lp = Simplex::new(1);
        lp.add_constraint(vec![r(1)], LE, r(-5));
        match lp.maximize(&[r(1)]) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(-5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // x + y = 3, x - y = 1 → x = 2, y = 1
        let mut lp = Simplex::new(2);
        lp.add_constraint(vec![r(1), r(1)], EQ, r(3));
        lp.add_constraint(vec![r(1), r(-1)], EQ, r(1));
        let p = lp.feasible_point().expect("feasible");
        assert_eq!(p[0], r(2));
        assert_eq!(p[1], r(1));
    }

    #[test]
    fn fractional_optimum() {
        // 2x = 1 → x = 1/2
        let mut lp = Simplex::new(1);
        lp.add_constraint(vec![r(2)], EQ, r(1));
        let p = lp.feasible_point().expect("feasible");
        assert_eq!(p[0], Rational::new(1, 2));
    }

    #[test]
    fn minimize_works() {
        // x >= 7, minimize x → 7
        let mut lp = Simplex::new(1);
        lp.add_constraint(vec![r(1)], GE, r(7));
        match lp.minimize(&[r(1)]) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn feasible_point_satisfies_constraints() {
        let mut lp = Simplex::new(3);
        lp.add_constraint(vec![r(1), r(2), r(-1)], LE, r(4));
        lp.add_constraint(vec![r(0), r(1), r(1)], GE, r(1));
        lp.add_constraint(vec![r(1), r(-1), r(0)], EQ, r(0));
        let p = lp.feasible_point().expect("feasible");
        let dot = |c: &[Rational]| {
            c.iter()
                .zip(&p)
                .fold(Rational::ZERO, |acc, (a, b)| acc + *a * *b)
        };
        assert!(dot(&[r(1), r(2), r(-1)]) <= r(4));
        assert!(dot(&[r(0), r(1), r(1)]) >= r(1));
        assert_eq!(dot(&[r(1), r(-1), r(0)]), r(0));
    }
}
