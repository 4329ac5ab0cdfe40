//! The exact decision procedure for CLIA SyGuS problems with examples (§6).
//!
//! CLIA grammars mix integer and Boolean nonterminals, connected by
//! `LessThan` (integers → Booleans) and `IfThenElse` (Booleans → integers).
//! The procedure [`analyze`] alternates two steps until the Boolean
//! abstractions stop changing (algorithm *SolveMutual*, §6.4):
//!
//! 1. **SolveBool** (§6.3): with the integer abstractions fixed, the Boolean
//!    equations are solved by finite fixed-point iteration over sets of
//!    Boolean vectors; `⟦LessThan⟧♯` is computed with `2^|E|` satisfiability
//!    queries on the symbolic concretizations (§6.2).
//! 2. **SolveInt**: with the Boolean abstractions fixed, the integer
//!    equations — which may contain `IfThenElse` — are rewritten by *RemIf*
//!    (§6.4, Fig. 1) into pure `⊕`/`⊗` equations over variables `X^b`
//!    (one copy of each integer nonterminal per Boolean mask `b`), and solved
//!    exactly with Newton's method. The value of `X` is the value of
//!    `X^{(t,…,t)}`.
//!
//! The combined abstraction is exact (Lemma 6.2), which is what makes the
//! final satisfiability check a decision procedure (Thm. 6.9).

use gfa::{EquationSystem, Monomial, SemiLinearSemiring, Semiring};
use logic::{stop_requested, Formula, Solver, Var};
use semilinear::{concretize_semilinear_prefixed, BoolVec, BoolVecSet, IntVec, SemiLinearSet};
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, NonTerminal, Sort, SygusError, Symbol};

/// The result of the CLIA analysis.
#[derive(Clone, Debug)]
pub struct CliaAnalysis {
    /// Exact abstraction of every integer nonterminal.
    pub int_values: BTreeMap<NonTerminal, SemiLinearSet>,
    /// Exact abstraction of every Boolean nonterminal.
    pub bool_values: BTreeMap<NonTerminal, BoolVecSet>,
    /// Number of outer SolveMutual iterations.
    pub outer_iterations: usize,
    /// Number of inner SolveBool fixed-point iterations (total).
    pub bool_iterations: usize,
}

impl CliaAnalysis {
    /// The abstraction of the start symbol, as either a semi-linear set or a
    /// Boolean-vector set depending on its sort.
    pub fn start_size(&self, grammar: &Grammar) -> usize {
        match grammar.sort_of(grammar.start()) {
            Some(Sort::Int) => self
                .int_values
                .get(grammar.start())
                .map(|v| v.size())
                .unwrap_or(0),
            Some(Sort::Bool) => self
                .bool_values
                .get(grammar.start())
                .map(|v| v.len())
                .unwrap_or(0),
            None => 0,
        }
    }
}

/// `⟦LessThan⟧♯(sl₁, sl₂)` (§6.2): the set of Boolean vectors `b` such that
/// some pair of members `v₁ ∈ sl₁, v₂ ∈ sl₂` satisfies `b = v₁ < v₂`
/// component-wise. Computed with `2^|E|` QF-LIA queries.
pub fn abstract_less_than(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize) -> BoolVecSet {
    abstract_comparison(sl1, sl2, dim, Formula::lt, Formula::ge)
}

/// `⟦Equal⟧♯(sl₁, sl₂)`: analogous to [`abstract_less_than`] for equality.
pub fn abstract_equal(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize) -> BoolVecSet {
    abstract_comparison(sl1, sl2, dim, Formula::eq, Formula::ne)
}

/// A comparison between two linear expressions, e.g. [`Formula::lt`].
type Rel = fn(logic::LinearExpr, logic::LinearExpr) -> Formula;

/// The shared body of `⟦<⟧♯`/`⟦=⟧♯`: `holds` is the comparison, `fails`
/// its negation. Polls the [`logic`] stop hook before every ILP query; a
/// stopped comparison returns a partial set.
fn abstract_comparison(
    sl1: &SemiLinearSet,
    sl2: &SemiLinearSet,
    dim: usize,
    holds: Rel,
    fails: Rel,
) -> BoolVecSet {
    if sl1.is_zero() || sl2.is_zero() {
        return BoolVecSet::empty();
    }
    let left_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_l_{j}"))).collect();
    let right_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_r_{j}"))).collect();
    let gamma = Formula::and(vec![
        concretize_semilinear_prefixed(sl1, &left_vars, "cmp_lam_l"),
        concretize_semilinear_prefixed(sl2, &right_vars, "cmp_lam_r"),
    ]);
    let solver = Solver::default();
    let mut out = BoolVecSet::empty();
    for b in BoolVec::all(dim) {
        if stop_requested() {
            break;
        }
        let mut conjuncts = vec![gamma.clone()];
        for j in 0..dim {
            let l = logic::LinearExpr::var(left_vars[j].clone());
            let r = logic::LinearExpr::var(right_vars[j].clone());
            conjuncts.push(if b[j] { holds(l, r) } else { fails(l, r) });
        }
        if solver.check(&Formula::and(conjuncts)).is_sat() {
            out = out.union(&BoolVecSet::singleton(b));
        }
    }
    out
}

/// Step 1 of SolveMutual: the least fixed point of the Boolean equations with
/// the integer abstractions held fixed (algorithm *SolveBool*, §6.3).
/// Returns the Boolean values and the number of iterations used. The
/// [`logic`] stop hook is polled before every Kleene round and every ILP
/// query of `⟦<⟧♯`/`⟦=⟧♯`; once it fires the values are partial.
pub fn solve_bool(
    grammar: &Grammar,
    examples: &ExampleSet,
    int_values: &BTreeMap<NonTerminal, SemiLinearSet>,
) -> (BTreeMap<NonTerminal, BoolVecSet>, usize) {
    let dim = examples.len();
    let bool_nts = grammar.bool_nonterminals();
    let mut values: BTreeMap<NonTerminal, BoolVecSet> = bool_nts
        .iter()
        .map(|nt| (nt.clone(), BoolVecSet::empty()))
        .collect();
    let max_iterations = bool_nts.len() * (1usize << dim) + 2;
    let mut iterations = 0;
    for _ in 0..max_iterations {
        if stop_requested() {
            break;
        }
        iterations += 1;
        let mut changed = false;
        let mut next = values.clone();
        for nt in &bool_nts {
            let mut acc = BoolVecSet::empty();
            for p in grammar.productions_of(nt) {
                let compare = |holds: Rel, fails: Rel| {
                    let (left, right) = (&int_values[&p.args[0]], &int_values[&p.args[1]]);
                    abstract_comparison(left, right, dim, holds, fails)
                };
                let contribution = match &p.symbol {
                    Symbol::LessThan => compare(Formula::lt, Formula::ge),
                    Symbol::Equal => compare(Formula::eq, Formula::ne),
                    Symbol::And => values[&p.args[0]].and(&values[&p.args[1]]),
                    Symbol::Or => values[&p.args[0]].or(&values[&p.args[1]]),
                    Symbol::Not => values[&p.args[0]].not(),
                    other => unreachable!("symbol {other} cannot produce a Boolean nonterminal"),
                };
                acc = acc.union(&contribution);
            }
            if acc != values[nt] {
                changed = true;
            }
            next.insert(nt.clone(), acc);
        }
        values = next;
        if !changed {
            break;
        }
    }
    (values, iterations)
}

/// Step 2 of SolveMutual: solve the integer equations with the Boolean
/// abstractions fixed, eliminating `IfThenElse` via the *RemIf* rewriting.
/// The Newton solve polls the [`logic`] stop hook; once it fires the values
/// are partial.
pub fn solve_int(
    grammar: &Grammar,
    examples: &ExampleSet,
    bool_values: &BTreeMap<NonTerminal, BoolVecSet>,
    stratified: bool,
    prune: bool,
) -> Result<BTreeMap<NonTerminal, SemiLinearSet>, SygusError> {
    let dim = examples.len();
    let int_nts = grammar.int_nonterminals();
    let nt_index: BTreeMap<NonTerminal, usize> = int_nts
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    let semiring = SemiLinearSemiring::new(dim).with_pruning(prune);

    // Masks: with IfThenElse we need one copy of every variable per Boolean
    // vector; without it a single (all-true) mask suffices.
    let masks: Vec<BoolVec> = if grammar.has_ite() {
        BoolVec::all(dim)
    } else {
        vec![BoolVec::trues(dim)]
    };
    let mask_index: BTreeMap<BoolVec, usize> = masks
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, m)| (m, i))
        .collect();
    let var_of = |nt: &NonTerminal, mask: &BoolVec| -> usize {
        nt_index[nt] * masks.len() + mask_index[mask]
    };

    let mut system: EquationSystem<SemiLinearSet> =
        EquationSystem::new(int_nts.len() * masks.len());

    for p in grammar.productions() {
        if grammar.sort_of(&p.lhs) != Some(Sort::Int) {
            continue;
        }
        for mask in &masks {
            let lhs = var_of(&p.lhs, mask);
            let project = |v: IntVec| -> SemiLinearSet {
                SemiLinearSet::singleton(v.project(mask.as_slice()))
            };
            match &p.symbol {
                Symbol::Plus => {
                    system.add_monomial(
                        lhs,
                        Monomial::new(
                            semiring.one(),
                            p.args.iter().map(|a| var_of(a, mask)).collect(),
                        ),
                    );
                }
                Symbol::Num(c) => {
                    system.add_monomial(lhs, Monomial::constant(project(IntVec::splat(*c, dim))));
                }
                Symbol::Var(x) => {
                    system.add_monomial(
                        lhs,
                        Monomial::constant(project(IntVec::from(examples.projection(x)?))),
                    );
                }
                Symbol::NegVar(x) => {
                    system.add_monomial(
                        lhs,
                        Monomial::constant(project(-IntVec::from(examples.projection(x)?))),
                    );
                }
                Symbol::IfThenElse => {
                    let guard = &p.args[0];
                    let (then_nt, else_nt) = (&p.args[1], &p.args[2]);
                    for b in bool_values
                        .get(guard)
                        .map(|s| s.iter().cloned().collect::<Vec<_>>())
                        .unwrap_or_default()
                    {
                        let then_mask = b.and(mask);
                        let else_mask = b.negate().and(mask);
                        system.add_monomial(
                            lhs,
                            Monomial::new(
                                semiring.one(),
                                vec![var_of(then_nt, &then_mask), var_of(else_nt, &else_mask)],
                            ),
                        );
                    }
                }
                Symbol::Minus => {
                    return Err(SygusError::GrammarError(
                        "the grammar contains Minus; apply the h(G) rewriting first".to_string(),
                    ))
                }
                other => {
                    return Err(SygusError::GrammarError(format!(
                        "unexpected symbol {other} in an integer production"
                    )))
                }
            }
        }
    }

    let solution = if stratified {
        gfa::strata::solve_stratified(&semiring, &system)
    } else {
        gfa::newton::solve(&semiring, &system)
    };

    let all_true = BoolVec::trues(dim);
    Ok(int_nts
        .iter()
        .map(|nt| (nt.clone(), solution.values[var_of(nt, &all_true)].clone()))
        .collect())
}

/// The full SolveMutual procedure (§6.4): alternate [`solve_bool`] and
/// [`solve_int`] until the Boolean abstractions reach their (finite) fixed
/// point.
///
/// The [`logic`] stop hook is polled in every SolveMutual round, every
/// SolveBool Kleene round, every ILP query of `⟦<⟧♯`/`⟦=⟧♯`, and every
/// Newton iteration and stratum. Once it fires the analysis returns
/// partial values: a caller inside a scope reads
/// [`logic::stop_requested`] after the call, and a cut-short
/// under-approximation must never reach a final query.
///
/// # Errors
/// Returns an error for grammars containing `Minus` (rewrite first) or
/// examples not binding a grammar variable.
pub fn analyze(
    grammar: &Grammar,
    examples: &ExampleSet,
    stratified: bool,
    prune: bool,
) -> Result<CliaAnalysis, SygusError> {
    let dim = examples.len();
    let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
        .int_nonterminals()
        .into_iter()
        .map(|nt| (nt, SemiLinearSet::zero()))
        .collect();
    let mut prev_bools: Option<BTreeMap<NonTerminal, BoolVecSet>> = None;
    let mut outer_iterations = 0;
    let mut bool_iterations = 0;
    let max_outer = grammar.num_nonterminals() * (1usize << dim) + 2;

    loop {
        let (bools, iters) = solve_bool(grammar, examples, &int_values);
        bool_iterations += iters;
        if stop_requested() || prev_bools.as_ref() == Some(&bools) {
            return Ok(CliaAnalysis {
                int_values,
                bool_values: bools,
                outer_iterations,
                bool_iterations,
            });
        }
        int_values = solve_int(grammar, examples, &bools, stratified, prune)?;
        prev_bools = Some(bools);
        outer_iterations += 1;
        // Termination is guaranteed by Lemma 6.6; the cap is a safety net.
        if stop_requested() || outer_iterations >= max_outer {
            return Ok(CliaAnalysis {
                int_values,
                bool_values: prev_bools.unwrap_or_default(),
                outer_iterations,
                bool_iterations,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::LinearSet;
    use sygus::GrammarBuilder;

    fn v(components: &[i64]) -> IntVec {
        IntVec::from(components.to_vec())
    }

    /// The CLIA grammar G2 of §2 (Eqn. (5)), in production normal form.
    fn g2() -> Grammar {
        GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("BExp", Sort::Bool)
            .nonterminal("Exp2", Sort::Int)
            .nonterminal("Exp3", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("N0", Sort::Int)
            .nonterminal("N2", Sort::Int)
            // Start ::= IfThenElse(BExp, Exp3, Start) | Exp2 | Exp3
            .production("Start", Symbol::IfThenElse, &["BExp", "Exp3", "Start"])
            .chain("Start", "Exp2")
            .chain("Start", "Exp3")
            // BExp ::= LessThan(X, N2) | LessThan(N0, Start) | And(BExp, BExp)
            .production("BExp", Symbol::LessThan, &["X", "N2"])
            .production("BExp", Symbol::LessThan, &["N0", "Start"])
            .production("BExp", Symbol::And, &["BExp", "BExp"])
            // Exp2 ::= Plus(X, X, Exp2) | Num(0)
            .production("Exp2", Symbol::Plus, &["X", "X", "Exp2"])
            .production("Exp2", Symbol::Num(0), &[])
            // Exp3 ::= Plus(X, X, X, Exp3) | Num(0)
            .production("Exp3", Symbol::Plus, &["X", "X", "X", "Exp3"])
            .production("Exp3", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("N0", Symbol::Num(0), &[])
            .production("N2", Symbol::Num(2), &[])
            .build()
            .unwrap()
    }

    #[test]
    fn abstract_less_than_matches_example_6_1() {
        // sl1 = {⟨(1,2),{(3,4)}⟩}, sl2 = {⟨(5,6),{(7,8)}⟩}
        let sl1 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 2]), vec![v(&[3, 4])])]);
        let sl2 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[5, 6]), vec![v(&[7, 8])])]);
        let result = abstract_less_than(&sl1, &sl2, 2);
        let expected = BoolVecSet::from_vecs([
            BoolVec::from(vec![true, true]),
            BoolVec::from(vec![true, false]),
            BoolVec::from(vec![false, false]),
        ]);
        assert_eq!(result, expected);
        // equality on overlapping singletons
        let a = SemiLinearSet::singleton(v(&[1, 2]));
        let b = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 0]), vec![v(&[0, 1])])]);
        let eq = abstract_equal(&a, &b, 2);
        assert!(eq.contains(&BoolVec::from(vec![true, true])));
        assert!(eq.contains(&BoolVec::from(vec![true, false])));
        assert!(!eq.contains(&BoolVec::from(vec![false, true])));
        assert!(!eq.contains(&BoolVec::from(vec![false, false])));
    }

    #[test]
    fn exp2_and_exp3_summaries_match_section_2() {
        // With E = ⟨1, 2⟩: Exp2 = {(0,0) + λ(2,4)}, Exp3 = {(0,0) + λ(3,6)}
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap();
        let exp2 = &analysis.int_values[&NonTerminal::new("Exp2")];
        assert!(exp2.contains(&v(&[0, 0])));
        assert!(exp2.contains(&v(&[2, 4])));
        assert!(exp2.contains(&v(&[20, 40])));
        assert!(!exp2.contains(&v(&[3, 6])));
        let exp3 = &analysis.int_values[&NonTerminal::new("Exp3")];
        assert!(exp3.contains(&v(&[3, 6])));
        assert!(!exp3.contains(&v(&[2, 4])));
    }

    #[test]
    fn bexp_fixed_point_contains_section_2_vectors() {
        // §2 computes n(BExp) ⊇ {(t,f), (t,t), (f,f)} for E = ⟨1, 2⟩.
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap();
        let bexp = &analysis.bool_values[&NonTerminal::new("BExp")];
        assert!(bexp.contains(&BoolVec::from(vec![true, false])));
        assert!(bexp.contains(&BoolVec::from(vec![true, true])));
        assert!(bexp.contains(&BoolVec::from(vec![false, false])));
    }

    #[test]
    fn start_abstraction_is_exact_on_witness_terms() {
        // §2 claims no term of G2 is consistent with E = ⟨1, 2⟩, but the
        // grammar does contain one:
        //   ite(0 < ite(x < 2, 0, 3x), 3x, 4x)
        // evaluates to 4 on x = 1 and 6 on x = 2. The exact abstraction must
        // therefore contain (4, 6) — exactness is what we test here — along
        // with other genuine outputs; unrealizability of the full problem is
        // established with a different example (see the check-level tests).
        use sygus::Term;
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap();
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[4, 8])), "2x+2x is derivable: {start}");
        assert!(start.contains(&v(&[3, 6])), "3x is derivable");
        assert!(start.contains(&v(&[0, 0])));

        // build the witness term and confirm both its membership in L(G2)
        // and that its output vector is abstracted
        let three_x = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x"), Term::num(0)],
        )
        .unwrap();
        let four_x = Term::apply(
            Symbol::Plus,
            vec![
                Term::var("x"),
                Term::var("x"),
                Term::apply(
                    Symbol::Plus,
                    vec![Term::var("x"), Term::var("x"), Term::num(0)],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        let inner = Term::ite(
            Term::less_than(Term::var("x"), Term::num(2)),
            Term::num(0),
            three_x.clone(),
        )
        .unwrap();
        let witness = Term::ite(Term::less_than(Term::num(0), inner), three_x, four_x).unwrap();
        assert!(g2().contains_term(&witness), "witness must be in L(G2)");
        let out = witness.eval_on(&examples).unwrap();
        assert_eq!(out.as_int().unwrap(), &[4, 6]);
        assert!(
            start.contains(&v(&[4, 6])),
            "exactness: the witness output must be abstracted; abstraction: {start}"
        );
    }

    #[test]
    fn g2_produces_only_zero_on_input_zero() {
        // On x = 0 every term of G2 evaluates to 0, so the abstraction of
        // Start must be exactly {0}; this is the example that makes the §2
        // CLIA problem provably unrealizable.
        let examples = ExampleSet::for_single_var("x", [0]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap();
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0])));
        assert!(!start.contains(&v(&[2])));
        assert!(!start.contains(&v(&[1])));
    }

    #[test]
    fn ite_actually_mixes_branches_across_examples() {
        // Grammar: Start ::= ite(x < 2, Zero, Six) with E = ⟨1, 5⟩.
        // On x=1 the guard is true (output 0), on x=5 false (output 6), so
        // the only derivable vector is (0, 6).
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("Zero", Sort::Int)
            .nonterminal("Six", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "Zero", "Six"])
            .production("B", Symbol::LessThan, &["X", "Two"])
            .production("Zero", Symbol::Num(0), &[])
            .production("Six", Symbol::Num(6), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1, 5]);
        let analysis = analyze(&grammar, &examples, true, true).unwrap();
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0, 6])));
        assert!(!start.contains(&v(&[0, 0])));
        assert!(!start.contains(&v(&[6, 6])));
        assert!(!start.contains(&v(&[6, 0])));
    }

    #[test]
    fn lia_only_grammars_work_through_the_clia_path_too() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("X", Sort::Int)
            .production("Start", Symbol::Plus, &["X", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [2]);
        let analysis = analyze(&grammar, &examples, true, true).unwrap();
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0])));
        assert!(start.contains(&v(&[6])));
        assert!(!start.contains(&v(&[3])));
        assert_eq!(analysis.outer_iterations, 1);
    }
}
