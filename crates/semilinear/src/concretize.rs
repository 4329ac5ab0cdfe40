//! Symbolic concretization γ̂ of semi-linear sets as QF-LIA formulas (§5.4).
//!
//! For a linear set `⟨u, {v₁,…,vₙ}⟩` and output variables `o⃗`,
//!
//! ```text
//! γ̂(⟨u,V⟩, o⃗)  =  ∃λ₁…λₙ ∈ ℕ . o⃗ = u + λ₁v₁ + … + λₙvₙ
//! ```
//!
//! The existential quantifiers are rendered as fresh free variables, which is
//! sound for satisfiability checking (the only use the framework makes of
//! γ̂). Only the [spanning generators](LinearSet::spanning_generators) get
//! a `λ`: a generator `c·v` (`c ≥ 2`) beside `v` adds no member. For a semi-linear set, γ̂ is the disjunction over its linear sets,
//! sharing the output variables `o⃗` across disjuncts (Eqn. (26)).

use crate::linear::LinearSet;
use crate::set::SemiLinearSet;
use logic::{Formula, LinearExpr, Var};

/// Symbolically concretizes a linear set over the given output variables.
///
/// Each [spanning generator](LinearSet::spanning_generators) `vᵢ` gets a
/// fresh `λᵢ`; the formula is equisatisfiable, under any constraint on the
/// outputs, with the one over all generators, and has fewer variables for
/// branch and bound. `lambda_prefix` is used to generate the fresh
/// coefficient variables, so callers composing several concretizations
/// must pass distinct prefixes.
///
/// # Panics
/// Panics if `outputs.len()` differs from the dimension of the linear set.
pub fn concretize_linear(ls: &LinearSet, outputs: &[Var], lambda_prefix: &str) -> Formula {
    assert_eq!(
        outputs.len(),
        ls.dim(),
        "output variable count must match the linear-set dimension"
    );
    let generators = ls.spanning_generators();
    let lambdas: Vec<Var> = (0..generators.len())
        .map(|i| Var::new(format!("{lambda_prefix}_{i}")))
        .collect();

    let mut conjuncts: Vec<Formula> = Vec::new();
    // λᵢ ≥ 0
    for lam in &lambdas {
        conjuncts.push(Formula::ge(
            LinearExpr::var(lam.clone()),
            LinearExpr::constant(0),
        ));
    }
    // oⱼ = uⱼ + Σᵢ λᵢ·vᵢ[j]
    for (j, out) in outputs.iter().enumerate() {
        let mut rhs = LinearExpr::constant(ls.base()[j]);
        for (lambda, gen) in lambdas.iter().zip(&generators) {
            rhs.add_term(lambda.clone(), gen[j]);
        }
        conjuncts.push(Formula::eq(LinearExpr::var(out.clone()), rhs));
    }
    Formula::and(conjuncts)
}

/// Symbolically concretizes a semi-linear set over the given output
/// variables: the disjunction of the concretizations of its linear sets
/// (Eqn. (26)), with `o⃗` shared among all disjuncts.
///
/// The empty semi-linear set concretizes to `false` (it denotes no vectors).
pub fn concretize_semilinear(sl: &SemiLinearSet, outputs: &[Var]) -> Formula {
    concretize_semilinear_prefixed(sl, outputs, "lambda")
}

/// Like [`concretize_semilinear`], but with an explicit prefix for the fresh
/// coefficient variables. Use distinct prefixes when conjoining the
/// concretizations of several semi-linear sets in one formula, otherwise
/// the existential coefficients would be unintentionally shared.
pub fn concretize_semilinear_prefixed(
    sl: &SemiLinearSet,
    outputs: &[Var],
    prefix: &str,
) -> Formula {
    if sl.is_zero() {
        return Formula::False;
    }
    Formula::or(
        sl.linear_sets()
            .iter()
            .enumerate()
            .map(|(i, ls)| concretize_linear(ls, outputs, &format!("{prefix}_{i}"))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::IntVec;
    use logic::{Model, Solver, SolverResult};

    fn v(components: &[i64]) -> IntVec {
        IntVec::from(components.to_vec())
    }
    fn outs(n: usize) -> Vec<Var> {
        (0..n).map(|i| Var::indexed("o", i + 1)).collect()
    }

    #[test]
    fn singleton_concretization() {
        let ls = LinearSet::singleton(v(&[4, 7]));
        let f = concretize_linear(&ls, &outs(2), "lam");
        let mut m = Model::new();
        m.set(Var::indexed("o", 1), 4);
        m.set(Var::indexed("o", 2), 7);
        assert!(f.eval(&m));
        m.set(Var::indexed("o", 2), 8);
        assert!(!f.eval(&m));
    }

    #[test]
    fn paper_equation_four_via_concretization() {
        // γ̂({⟨0, {3}⟩}, o1) ∧ o1 = 2·i1 + 2 ∧ i1 = 1  is unsat
        let sl = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[0]), vec![v(&[3])])]);
        let o1 = Var::indexed("o", 1);
        let i1 = Var::indexed("i", 1);
        let gamma = concretize_semilinear(&sl, std::slice::from_ref(&o1));
        let spec = Formula::and(vec![
            Formula::eq(
                LinearExpr::var(o1),
                LinearExpr::var(i1.clone()).scale(2) + LinearExpr::constant(2),
            ),
            Formula::eq(LinearExpr::var(i1), LinearExpr::constant(1)),
        ]);
        let query = Formula::and(vec![gamma, spec]);
        assert_eq!(Solver::default().check(&query), SolverResult::Unsat);
    }

    #[test]
    fn satisfiable_concretization_yields_member() {
        // {⟨(0,0), {(2,4)}⟩}: o must be (2λ, 4λ)
        let sl = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[0, 0]), vec![v(&[2, 4])])]);
        let outputs = outs(2);
        let gamma = concretize_semilinear(&sl, &outputs);
        let constraint = Formula::eq(LinearExpr::var(outputs[0].clone()), LinearExpr::constant(6));
        match Solver::default().check(&Formula::and(vec![gamma, constraint])) {
            SolverResult::Sat(m) => {
                let o = IntVec::from(vec![m.get_or_zero(&outputs[0]), m.get_or_zero(&outputs[1])]);
                assert_eq!(o, v(&[6, 12]));
                assert!(sl.contains(&o));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_set_concretizes_to_false() {
        assert_eq!(
            concretize_semilinear(&SemiLinearSet::zero(), &outs(1)),
            Formula::False
        );
    }

    #[test]
    fn membership_agrees_with_solver_on_samples() {
        let sl = SemiLinearSet::from_linear_sets([
            LinearSet::new(v(&[1, 1]), vec![v(&[2, 0]), v(&[0, 3])]),
            LinearSet::new(v(&[0, 5]), vec![v(&[1, 1])]),
        ]);
        let outputs = outs(2);
        let gamma = concretize_semilinear(&sl, &outputs);
        let solver = Solver::default();
        for target in [v(&[3, 4]), v(&[2, 7]), v(&[5, 1]), v(&[0, 5]), v(&[4, 9])] {
            let pin = Formula::and(vec![
                Formula::eq(
                    LinearExpr::var(outputs[0].clone()),
                    LinearExpr::constant(target[0]),
                ),
                Formula::eq(
                    LinearExpr::var(outputs[1].clone()),
                    LinearExpr::constant(target[1]),
                ),
            ]);
            let sat = solver
                .check(&Formula::and(vec![gamma.clone(), pin]))
                .is_sat();
            assert_eq!(
                sat,
                sl.contains(&target),
                "solver and membership disagree on {target}"
            );
        }
    }
}
