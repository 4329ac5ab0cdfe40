//! The exact decision procedure for CLIA SyGuS problems with examples (§6).
//!
//! CLIA grammars mix integer and Boolean nonterminals, connected by
//! `LessThan` (integers → Booleans) and `IfThenElse` (Booleans → integers).
//! The procedure [`analyze`] alternates two steps until the Boolean
//! abstractions stop changing (algorithm *SolveMutual*, §6.4):
//!
//! 1. **SolveBool** (§6.3): with the integer abstractions fixed, the Boolean
//!    equations are solved by finite fixed-point iteration over sets of
//!    Boolean vectors. `⟦LessThan⟧♯`/`⟦Equal⟧♯` read only the fixed integer
//!    values, so each is computed once per call, one pair of linear sets at
//!    a time: a pair of points is compared directly, and only a pair with
//!    generators issues satisfiability queries on its symbolic
//!    concretization (§6.2), one per Boolean vector not yet found. Within
//!    one SolveMutual run a comparison whose two operands kept their values
//!    since an earlier round reuses that round's result: `⟦<⟧♯`/`⟦=⟧♯` is
//!    a function of its operands alone.
//! 2. **SolveInt**: with the Boolean abstractions fixed, the integer
//!    equations — which may contain `IfThenElse` — are rewritten by *RemIf*
//!    (§6.4, Fig. 1) into pure `⊕`/`⊗` equations over variables `X^b`
//!    (copies of an integer nonterminal for Boolean masks `b`), and solved
//!    exactly with Newton's method. The value of `X` is the value of
//!    `X^{(t,…,t)}`, so only the copies that the all-true copies read are
//!    built: those reached from them through `ite` splits `g ∧ b`, `¬g ∧ b`.
//!
//! The combined abstraction is exact (Lemma 6.2), which is what makes the
//! final satisfiability check a decision procedure (Thm. 6.9). It is exact
//! only once SolveMutual reaches its fixpoint and every comparison query is
//! answered; [`check_unrealizable`](crate::check_unrealizable) answers
//! *unknown* otherwise.

use gfa::{EquationSystem, Monomial};
use logic::{stop_requested, Atom, Formula, LinearExpr, Rel, Solver, SolverResult, Var};
use semilinear::{concretize_linear, BoolVec, BoolVecSet, IntVec, SemiLinearSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
/// component-wise. Only pairs of linear sets with generators need ILP
/// queries; `None` if one came back unknown (a solver budget) or the
/// [`logic`] stop hook, polled per linear set of `sl₁` and before each
/// query, fired.
pub fn abstract_less_than(
    sl1: &SemiLinearSet,
    sl2: &SemiLinearSet,
    dim: usize,
) -> Option<BoolVecSet> {
    abstract_comparison(sl1, sl2, dim, Rel::Lt)
}

/// `⟦Equal⟧♯(sl₁, sl₂)`: analogous to [`abstract_less_than`] for equality.
pub fn abstract_equal(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize) -> Option<BoolVecSet> {
    abstract_comparison(sl1, sl2, dim, Rel::Eq)
}

/// The shared body of `⟦<⟧♯`/`⟦=⟧♯` for the comparison `rel`, one pair of
/// linear sets `(ls₁ ∈ sl₁, ls₂ ∈ sl₂)` at a time. The result is the union
/// over pairs, which is the set `γ̂(sl₁) ∧ γ̂(sl₂)` denotes as a whole.
///
/// * A pair of two points `⟨u₁, ∅⟩, ⟨u₂, ∅⟩` contributes exactly the vector
///   `bⱼ = rel(u₁[j], u₂[j])`, with no solver.
/// * Any other pair conjoins its two one-cube concretizations `γ̂(ls₁)`,
///   `γ̂(ls₂)` and asks, for each `b` not yet found, whether some member
///   pair compares as `b`.
///
/// Once all `2^dim` vectors are found no pair can add one, so the rest
/// are skipped.
///
/// Returns `None` if a query came back unknown (a solver budget) or the
/// [`logic`] stop hook, polled once per linear set of `sl₁` and before
/// every query, fired.
fn abstract_comparison(
    sl1: &SemiLinearSet,
    sl2: &SemiLinearSet,
    dim: usize,
    rel: Rel,
) -> Option<BoolVecSet> {
    let every_vector = 1usize.checked_shl(dim as u32);
    let mut found: BTreeSet<BoolVec> = BTreeSet::new();
    let mut symbolic = Vec::new();
    for ls1 in sl1.linear_sets() {
        // Thousands of point pairs per side take long without any query.
        if stop_requested() {
            return None;
        }
        for ls2 in sl2.linear_sets() {
            if ls1.is_singleton() && ls2.is_singleton() {
                let (u1, u2) = (ls1.base(), ls2.base());
                found.insert(BoolVec::from(
                    (0..dim).map(|j| rel.eval(u1[j], u2[j])).collect::<Vec<_>>(),
                ));
                if Some(found.len()) == every_vector {
                    return Some(BoolVecSet::top(dim));
                }
            } else {
                symbolic.push((ls1, ls2));
            }
        }
    }
    let left: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_l_{j}"))).collect();
    let right: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_r_{j}"))).collect();
    let solver = Solver::default();
    for (ls1, ls2) in symbolic {
        if Some(found.len()) == every_vector {
            break;
        }
        let gamma = Formula::and(vec![
            concretize_linear(ls1, &left, "cmp_lam_l"),
            concretize_linear(ls2, &right, "cmp_lam_r"),
        ]);
        for b in BoolVec::all(dim) {
            if found.contains(&b) {
                continue;
            }
            if stop_requested() {
                return None;
            }
            let compared = (0..dim).map(|j| {
                let holds = if b[j] { rel } else { rel.negate() };
                Formula::Atom(Atom::new(
                    LinearExpr::var(left[j].clone()),
                    holds,
                    LinearExpr::var(right[j].clone()),
                ))
            });
            match solver.check(&Formula::and(
                std::iter::once(gamma.clone()).chain(compared),
            )) {
                SolverResult::Sat(_) => {
                    found.insert(b);
                }
                SolverResult::Unsat => {}
                SolverResult::Unknown => return None,
            }
        }
    }
    Some(found.into_iter().collect())
}

/// Step 1 of SolveMutual: the least fixed point of the Boolean equations with
/// the integer abstractions held fixed (algorithm *SolveBool*, §6.3).
/// Returns the Boolean values and the number of iterations used. Each
/// `LessThan`/`Equal` production is computed once, before the Kleene
/// rounds, which then only apply `And`/`Or`/`Not`. The [`logic`] stop
/// hook is polled before every Kleene round, and in `⟦<⟧♯`/`⟦=⟧♯` per
/// linear set of the left operand and before every ILP query; once it
/// fires the values are partial.
pub fn solve_bool(
    grammar: &Grammar,
    examples: &ExampleSet,
    int_values: &BTreeMap<NonTerminal, SemiLinearSet>,
) -> (BTreeMap<NonTerminal, BoolVecSet>, usize) {
    let (values, iterations, _) =
        solve_bool_exact(grammar, examples, int_values, &mut Comparisons::new());
    (values, iterations)
}

/// The `⟦<⟧♯`/`⟦=⟧♯` results of one SolveMutual run, keyed by relation and
/// operand nonterminals. An entry is valid for the integer values it was
/// computed from; [`solve_mutual`] drops it once either operand's value
/// changes. Only exact (`Some`) results are stored.
type Comparisons = HashMap<(Rel, NonTerminal, NonTerminal), BoolVecSet>;

/// [`solve_bool`], plus whether every `⟦<⟧♯`/`⟦=⟧♯` was known exactly. A
/// comparison found in `comparisons` is reused, and every other exact one
/// is stored there.
fn solve_bool_exact(
    grammar: &Grammar,
    examples: &ExampleSet,
    int_values: &BTreeMap<NonTerminal, SemiLinearSet>,
    comparisons: &mut Comparisons,
) -> (BTreeMap<NonTerminal, BoolVecSet>, usize, bool) {
    let dim = examples.len();
    let bool_nts = grammar.bool_nonterminals();
    // The comparisons read only the integer values, which are fixed here:
    // each production's contribution is computed once and seeds every round.
    let mut exact = true;
    let mut seeds: BTreeMap<&NonTerminal, BoolVecSet> = BTreeMap::new();
    for nt in &bool_nts {
        let mut seed = BoolVecSet::empty();
        for p in grammar.productions_of(nt) {
            let rel = match &p.symbol {
                Symbol::LessThan => Rel::Lt,
                Symbol::Equal => Rel::Eq,
                _ => continue,
            };
            let key = (rel, p.args[0].clone(), p.args[1].clone());
            if let Some(contribution) = comparisons.get(&key) {
                seed = seed.union(contribution);
                continue;
            }
            let (left, right) = (&int_values[&p.args[0]], &int_values[&p.args[1]]);
            match abstract_comparison(left, right, dim, rel) {
                Some(contribution) => {
                    seed = seed.union(&contribution);
                    comparisons.insert(key, contribution);
                }
                None => exact = false,
            }
        }
        seeds.insert(nt, seed);
    }
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
            let mut acc = seeds[nt].clone();
            for p in grammar.productions_of(nt) {
                let contribution = match &p.symbol {
                    Symbol::LessThan | Symbol::Equal => continue,
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
    (values, iterations, exact)
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
    solve_remif(grammar, examples, bool_values, stratified, prune).map(|(values, _)| values)
}

/// [`solve_int`], plus the number of Newton iterations (summed over
/// strata). This is naySL's one equation builder: without `IfThenElse`
/// the RemIf system has only the all-true copies and is Eqn. (25), which
/// is how [`lia::analyze`](crate::lia::analyze) solves LIA⁺ grammars.
///
/// The system holds the copies `X^b` that [`demanded_copies`] finds. Each
/// integer production of `X` contributes one monomial per copy `X^b`,
/// following the abstract semantics of Eqns. (21)–(24) projected onto `b`:
///
/// * `Plus(X₁,…,Xₖ)` → the monomial `X₁^b ⊗ … ⊗ Xₖ^b`,
/// * `Num(c)`        → the constant `{⟨(c,…,c), ∅⟩}`,
/// * `Var(x)`        → the constant `{⟨μ_E(x), ∅⟩}`,
/// * `NegVar(x)`     → the constant `{⟨-μ_E(x), ∅⟩}`,
/// * `IfThenElse(B, X₁, X₂)` → `X₁^{g∧b} ⊗ X₂^{¬g∧b}` for every `g ∈ n(B)`.
pub(crate) fn solve_remif(
    grammar: &Grammar,
    examples: &ExampleSet,
    bool_values: &BTreeMap<NonTerminal, BoolVecSet>,
    stratified: bool,
    prune: bool,
) -> Result<(BTreeMap<NonTerminal, SemiLinearSet>, usize), SygusError> {
    let dim = examples.len();
    let int_nts = grammar.int_nonterminals();
    let nt_index: BTreeMap<NonTerminal, usize> = int_nts
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    let copies = demanded_copies(grammar, &nt_index, bool_values, dim);
    let var_of = |nt: &NonTerminal, mask: &BoolVec| -> usize { copies[nt_index[nt]][mask] };

    let mut system = EquationSystem::new(copies.iter().map(BTreeMap::len).sum());

    for p in grammar.productions() {
        if grammar.sort_of(&p.lhs) != Some(Sort::Int) {
            continue;
        }
        for (mask, &lhs) in &copies[nt_index[&p.lhs]] {
            let project = |v: IntVec| -> SemiLinearSet {
                SemiLinearSet::singleton(v.project(mask.as_slice()))
            };
            match &p.symbol {
                Symbol::Plus => {
                    system.add_monomial(
                        lhs,
                        Monomial::new(
                            SemiLinearSet::one(dim),
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
                    let (then_nt, else_nt) = (&p.args[1], &p.args[2]);
                    for g in guard_values(bool_values, &p.args[0]) {
                        system.add_monomial(
                            lhs,
                            Monomial::new(
                                SemiLinearSet::one(dim),
                                vec![
                                    var_of(then_nt, &g.and(mask)),
                                    var_of(else_nt, &g.negate().and(mask)),
                                ],
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
        gfa::strata::solve_stratified(&system, dim, prune)
    } else {
        gfa::newton::solve(&system, dim, prune)
    };

    let all_true = BoolVec::trues(dim);
    let values = int_nts
        .iter()
        .map(|nt| (nt.clone(), solution.values[var_of(nt, &all_true)].clone()))
        .collect();
    Ok((values, solution.iterations))
}

/// `n(B)`, the guard values an `IfThenElse` splits on; none before SolveBool
/// has given `B` a value.
fn guard_values<'a>(
    bool_values: &'a BTreeMap<NonTerminal, BoolVecSet>,
    guard: &NonTerminal,
) -> impl Iterator<Item = &'a BoolVec> {
    bool_values
        .get(guard)
        .into_iter()
        .flat_map(BoolVecSet::iter)
}

/// The RemIf copies `X^b` that the all-true copies read, as a map from mask
/// to variable index for each integer nonterminal (indexed as in
/// `nt_index`).
///
/// A worklist starts from `X^{(t,…,t)}` for every integer nonterminal `X`.
/// `Plus` passes a copy's mask `b` on to its arguments, and
/// `IfThenElse(B, X₁, X₂)` demands `X₁^{g∧b}` and `X₂^{¬g∧b}` for every
/// `g ∈ n(B)`. The set is closed under the equations' dependences, so it is
/// a union of whole strata of the all-masks system, and the all-true copies
/// keep the same least solution. Variables are numbered as in that system,
/// by nonterminal and then by mask read as a little-endian number (the
/// order of [`BoolVec::all`]), which keeps Newton's pivot order.
fn demanded_copies(
    grammar: &Grammar,
    nt_index: &BTreeMap<NonTerminal, usize>,
    bool_values: &BTreeMap<NonTerminal, BoolVecSet>,
    dim: usize,
) -> Vec<BTreeMap<BoolVec, usize>> {
    let mut demanded: Vec<BTreeSet<BoolVec>> = vec![BTreeSet::new(); nt_index.len()];
    let mut work: Vec<(&NonTerminal, BoolVec)> = nt_index
        .keys()
        .map(|nt| (nt, BoolVec::trues(dim)))
        .collect();
    while let Some((nt, mask)) = work.pop() {
        if demanded[nt_index[nt]].contains(&mask) {
            continue;
        }
        for p in grammar.productions_of(nt) {
            match &p.symbol {
                Symbol::Plus => work.extend(p.args.iter().map(|a| (a, mask.clone()))),
                Symbol::IfThenElse => {
                    for g in guard_values(bool_values, &p.args[0]) {
                        work.push((&p.args[1], g.and(&mask)));
                        work.push((&p.args[2], g.negate().and(&mask)));
                    }
                }
                _ => {}
            }
        }
        demanded[nt_index[nt]].insert(mask);
    }
    let mut next = 0..;
    demanded
        .into_iter()
        .map(|masks| {
            let mut masks: Vec<BoolVec> = masks.into_iter().collect();
            masks.sort_by(|a, b| a.as_slice().iter().rev().cmp(b.as_slice().iter().rev()));
            masks.into_iter().zip(&mut next).collect()
        })
        .collect()
}

/// The full SolveMutual procedure (§6.4): alternate [`solve_bool`] and
/// [`solve_int`] until the Boolean abstractions reach their (finite) fixed
/// point. A `⟦<⟧♯`/`⟦=⟧♯` whose operands kept their values since an
/// earlier round is not recomputed: the values are the same as those of
/// calling the public steps in turn.
///
/// The [`logic`] stop hook is polled in every SolveMutual round, every
/// SolveBool Kleene round, every ILP query of `⟦<⟧♯`/`⟦=⟧♯` and every
/// linear set of its left operand, every Newton iteration and stratum,
/// every monomial of an equation's right-hand side, and per linear set in
/// every pruning of a semi-linear set. Once it fires the analysis returns
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
    solve_mutual(grammar, examples, stratified, prune).map(|(analysis, _)| analysis)
}

/// [`analyze`], plus whether its values are the exact abstraction: `false`
/// when SolveMutual stopped at its round cap, which by Lemma 6.6 means it
/// did not reach its fixpoint, or a `⟦<⟧♯`/`⟦=⟧♯` was not known exactly.
pub(crate) fn solve_mutual(
    grammar: &Grammar,
    examples: &ExampleSet,
    stratified: bool,
    prune: bool,
) -> Result<(CliaAnalysis, bool), SygusError> {
    let dim = examples.len();
    let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
        .int_nonterminals()
        .into_iter()
        .map(|nt| (nt, SemiLinearSet::zero()))
        .collect();
    let mut prev_bools: Option<BTreeMap<NonTerminal, BoolVecSet>> = None;
    let mut outer_iterations = 0;
    let mut bool_iterations = 0;
    let mut exact = true;
    let max_outer = grammar.num_nonterminals() * (1usize << dim) + 2;
    let mut comparisons = Comparisons::new();

    loop {
        let (bools, iters, bools_exact) =
            solve_bool_exact(grammar, examples, &int_values, &mut comparisons);
        bool_iterations += iters;
        exact &= bools_exact;
        if stop_requested() || prev_bools.as_ref() == Some(&bools) {
            let analysis = CliaAnalysis {
                int_values,
                bool_values: bools,
                outer_iterations,
                bool_iterations,
            };
            return Ok((analysis, exact));
        }
        let next = solve_int(grammar, examples, &bools, stratified, prune)?;
        forget_changed(&mut comparisons, &int_values, &next);
        int_values = next;
        prev_bools = Some(bools);
        outer_iterations += 1;
        // Termination is guaranteed by Lemma 6.6; the cap is a safety net.
        if stop_requested() || outer_iterations >= max_outer {
            let analysis = CliaAnalysis {
                int_values,
                bool_values: prev_bools.unwrap_or_default(),
                outer_iterations,
                bool_iterations,
            };
            return Ok((analysis, false));
        }
    }
}

/// Drops the comparisons one of whose operands has a different value in
/// `next` than in `prev`; the others still hold for `next`.
fn forget_changed(
    comparisons: &mut Comparisons,
    prev: &BTreeMap<NonTerminal, SemiLinearSet>,
    next: &BTreeMap<NonTerminal, SemiLinearSet>,
) {
    comparisons
        .retain(|(_, left, right), _| prev[left] == next[left] && prev[right] == next[right]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::{concretize_semilinear_prefixed, LinearSet};
    use sygus::rng::GenRng;
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
        let result = abstract_less_than(&sl1, &sl2, 2).unwrap();
        let expected = BoolVecSet::from_vecs([
            BoolVec::from(vec![true, true]),
            BoolVec::from(vec![true, false]),
            BoolVec::from(vec![false, false]),
        ]);
        assert_eq!(result, expected);
        // equality on overlapping singletons
        let a = SemiLinearSet::singleton(v(&[1, 2]));
        let b = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 0]), vec![v(&[0, 1])])]);
        let eq = abstract_equal(&a, &b, 2).unwrap();
        assert!(eq.contains(&BoolVec::from(vec![true, true])));
        assert!(eq.contains(&BoolVec::from(vec![true, false])));
        assert!(!eq.contains(&BoolVec::from(vec![false, true])));
        assert!(!eq.contains(&BoolVec::from(vec![false, false])));
    }

    /// Relations `⟦<⟧♯`/`⟦=⟧♯` are built from.
    const RELS: [Rel; 2] = [Rel::Lt, Rel::Eq];

    fn random_vec(rng: &mut GenRng, dim: usize, bound: i64) -> IntVec {
        (0..dim).map(|_| rng.range_i64(-bound, bound)).collect()
    }

    /// `n` distinct points with components in `[-4, 4]`.
    fn random_points(rng: &mut GenRng, n: usize, dim: usize) -> SemiLinearSet {
        let mut points = BTreeSet::new();
        while points.len() < n {
            points.insert(random_vec(rng, dim, 4));
        }
        SemiLinearSet::from_linear_sets(points.into_iter().map(LinearSet::singleton))
    }

    /// One to three linear sets with up to two generators each.
    fn random_linear_sets(rng: &mut GenRng, dim: usize) -> SemiLinearSet {
        let parts: Vec<LinearSet> = (0..rng.range_i64(1, 3))
            .map(|_| {
                let generators = (0..rng.range_i64(0, 2))
                    .map(|_| random_vec(rng, dim, 3))
                    .collect();
                LinearSet::new(random_vec(rng, dim, 4), generators)
            })
            .collect();
        SemiLinearSet::from_linear_sets(parts)
    }

    /// Every `rel(v₁, v₂)` over the member pairs of two point-only sets.
    fn brute_force(sl1: &SemiLinearSet, sl2: &SemiLinearSet, rel: Rel) -> BoolVecSet {
        let mut out = BTreeSet::new();
        for a in sl1.linear_sets() {
            for b in sl2.linear_sets() {
                let pairs = a.base().iter().zip(b.base().iter());
                out.insert(BoolVec::from(
                    pairs
                        .map(|(x, y)| if rel == Rel::Lt { x < y } else { x == y })
                        .collect::<Vec<_>>(),
                ));
            }
        }
        out.into_iter().collect()
    }

    /// The formulation the per-pair kernel replaced: one query per `b` over
    /// the whole `γ̂(sl₁) ∧ γ̂(sl₂)`, kept here as the reference.
    fn single_query(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize, rel: Rel) -> BoolVecSet {
        let left: Vec<Var> = (0..dim).map(|j| Var::new(format!("l_{j}"))).collect();
        let right: Vec<Var> = (0..dim).map(|j| Var::new(format!("r_{j}"))).collect();
        let gamma = Formula::and(vec![
            concretize_semilinear_prefixed(sl1, &left, "lam_l"),
            concretize_semilinear_prefixed(sl2, &right, "lam_r"),
        ]);
        let solver = Solver::default();
        let holds = |b: &BoolVec| {
            let compared = (0..dim).map(|j| {
                let r = if b[j] { rel } else { rel.negate() };
                Formula::Atom(Atom::new(
                    LinearExpr::var(left[j].clone()),
                    r,
                    LinearExpr::var(right[j].clone()),
                ))
            });
            match solver.check(&Formula::and(
                std::iter::once(gamma.clone()).chain(compared),
            )) {
                SolverResult::Sat(_) => true,
                SolverResult::Unsat => false,
                SolverResult::Unknown => panic!("reference query on {sl1} and {sl2} is unknown"),
            }
        };
        BoolVec::all(dim).into_iter().filter(holds).collect()
    }

    #[test]
    fn comparisons_of_points_match_brute_force() {
        let mut rng = GenRng::from_seed(0x00C0_FFEE);
        for case in 0..24 {
            // The first cases hold 65 or more points a side: more than the
            // solver's 4096-cube budget as one formula.
            let (dim, n1, n2) = if case < 4 {
                (
                    rng.range_i64(3, 4) as usize,
                    rng.range_i64(65, 80) as usize,
                    rng.range_i64(65, 80) as usize,
                )
            } else {
                let dim = rng.range_i64(1, 4) as usize;
                let cap = 9i64.pow(dim as u32).min(20);
                (
                    dim,
                    rng.range_i64(1, cap) as usize,
                    rng.range_i64(1, cap) as usize,
                )
            };
            let sl1 = random_points(&mut rng, n1, dim);
            let sl2 = random_points(&mut rng, n2, dim);
            for rel in RELS {
                assert_eq!(
                    abstract_comparison(&sl1, &sl2, dim, rel),
                    Some(brute_force(&sl1, &sl2, rel)),
                    "case {case}: {rel} on {n1} x {n2} points of dimension {dim}"
                );
            }
        }
    }

    #[test]
    fn comparisons_with_generators_match_the_single_query_formulation() {
        let mut rng = GenRng::from_seed(0x5EED_CAFE);
        for case in 0..40 {
            let dim = rng.range_i64(1, 3) as usize;
            let sl1 = random_linear_sets(&mut rng, dim);
            let sl2 = random_linear_sets(&mut rng, dim);
            for rel in RELS {
                assert_eq!(
                    abstract_comparison(&sl1, &sl2, dim, rel),
                    Some(single_query(&sl1, &sl2, dim, rel)),
                    "case {case}: {rel} on {sl1} and {sl2}"
                );
            }
        }
    }

    #[test]
    fn comparisons_stop_once_points_give_every_vector() {
        // The four point pairs give all four vectors for `<`, so the
        // generator pair that follows cannot add one.
        let sl1 = SemiLinearSet::singleton(v(&[0, 0]));
        let points = [v(&[1, 1]), v(&[1, -1]), v(&[-1, 1]), v(&[-1, -1])];
        let points = SemiLinearSet::from_linear_sets(points.map(LinearSet::singleton));
        assert_eq!(brute_force(&sl1, &points, Rel::Lt), BoolVecSet::top(2));
        let generators =
            SemiLinearSet::from_linear_sets([LinearSet::new(v(&[5, 0]), vec![v(&[1, 2])])]);
        let sl2 = points.combine(&generators);
        for rel in RELS {
            assert_eq!(
                abstract_comparison(&sl1, &sl2, 2, rel),
                Some(single_query(&sl1, &sl2, 2, rel)),
                "{rel} on {sl1} and {sl2}"
            );
        }
    }

    /// The RemIf builder the demand-driven one replaced: every integer
    /// nonterminal once per Boolean mask, all `2^|E|` of them, kept here as
    /// the reference.
    fn all_masks_solve_int(
        grammar: &Grammar,
        examples: &ExampleSet,
        bool_values: &BTreeMap<NonTerminal, BoolVecSet>,
        stratified: bool,
    ) -> BTreeMap<NonTerminal, SemiLinearSet> {
        let dim = examples.len();
        let int_nts = grammar.int_nonterminals();
        let masks = BoolVec::all(dim);
        let var_of = |nt: &NonTerminal, mask: &BoolVec| -> usize {
            let nt = int_nts.iter().position(|x| x == nt).unwrap();
            nt * masks.len() + masks.iter().position(|m| m == mask).unwrap()
        };
        let mut system = EquationSystem::new(int_nts.len() * masks.len());
        for p in grammar.productions() {
            if grammar.sort_of(&p.lhs) != Some(Sort::Int) {
                continue;
            }
            for mask in &masks {
                let lhs = var_of(&p.lhs, mask);
                let constant = |v: IntVec| {
                    Monomial::constant(SemiLinearSet::singleton(v.project(mask.as_slice())))
                };
                let monomials = match &p.symbol {
                    Symbol::Plus => vec![Monomial::new(
                        SemiLinearSet::one(dim),
                        p.args.iter().map(|a| var_of(a, mask)).collect(),
                    )],
                    Symbol::Num(c) => vec![constant(IntVec::splat(*c, dim))],
                    Symbol::Var(x) => vec![constant(IntVec::from(examples.projection(x).unwrap()))],
                    Symbol::NegVar(x) => {
                        vec![constant(-IntVec::from(examples.projection(x).unwrap()))]
                    }
                    Symbol::IfThenElse => bool_values
                        .get(&p.args[0])
                        .into_iter()
                        .flat_map(BoolVecSet::iter)
                        .map(|g| {
                            Monomial::new(
                                SemiLinearSet::one(dim),
                                vec![
                                    var_of(&p.args[1], &g.and(mask)),
                                    var_of(&p.args[2], &g.negate().and(mask)),
                                ],
                            )
                        })
                        .collect(),
                    other => panic!("unexpected symbol {other} in an integer production"),
                };
                for m in monomials {
                    system.add_monomial(lhs, m);
                }
            }
        }
        let solution = if stratified {
            gfa::strata::solve_stratified(&system, dim, true)
        } else {
            gfa::newton::solve(&system, dim, true)
        };
        let all_true = BoolVec::trues(dim);
        int_nts
            .iter()
            .map(|nt| (nt.clone(), solution.values[var_of(nt, &all_true)].clone()))
            .collect()
    }

    /// Runs SolveMutual and requires [`solve_int`] to equal the all-masks
    /// reference on every integer nonterminal, in every round and at both
    /// `stratified` settings.
    fn assert_demand_driven_matches_all_masks(grammar: &Grammar, examples: &ExampleSet) {
        let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
            .int_nonterminals()
            .into_iter()
            .map(|nt| (nt, SemiLinearSet::zero()))
            .collect();
        let mut prev_bools = None;
        for round in 0.. {
            let (bools, _) = solve_bool(grammar, examples, &int_values);
            if prev_bools.as_ref() == Some(&bools) {
                return;
            }
            for stratified in [true, false] {
                let values = solve_int(grammar, examples, &bools, stratified, true).unwrap();
                let reference = all_masks_solve_int(grammar, examples, &bools, stratified);
                assert_eq!(
                    values, reference,
                    "round {round}, stratified {stratified}, n(B) = {bools:?}"
                );
                int_values = values;
            }
            prev_bools = Some(bools);
        }
    }

    #[test]
    fn demanded_copies_match_the_all_masks_system_on_g2() {
        for xs in [vec![1, 2], vec![0], vec![1, 2, 3]] {
            let examples = ExampleSet::for_single_var("x", xs);
            assert_demand_driven_matches_all_masks(&g2(), &examples);
        }
    }

    #[test]
    fn demanded_copies_match_the_all_masks_system_on_nested_ite() {
        // Start ::= ite(B, Inner, Start) | x + 1 | 0
        // Inner ::= ite(C, x, Start)
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Inner", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("C", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("One", Sort::Int)
            .nonterminal("Zero", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "Inner", "Start"])
            .production("Start", Symbol::Plus, &["X", "One"])
            .production("Start", Symbol::Num(0), &[])
            .production("Inner", Symbol::IfThenElse, &["C", "X", "Start"])
            .production("B", Symbol::LessThan, &["X", "Start"])
            .production("C", Symbol::LessThan, &["Zero", "X"])
            .production("C", Symbol::Equal, &["X", "One"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("One", Symbol::Num(1), &[])
            .production("Zero", Symbol::Num(0), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [0, 1, 3]);
        assert_demand_driven_matches_all_masks(&grammar, &examples);
    }

    #[test]
    fn demanded_copies_match_the_all_masks_system_on_and_not_guards() {
        // Start ::= ite(B, X, Y) | Y + Y;  B ::= And(C, D) | Not(C)
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("C", Sort::Bool)
            .nonterminal("D", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("Y", Sort::Int)
            .nonterminal("One", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "X", "Start"])
            .production("Start", Symbol::Plus, &["Y", "Y"])
            .production("B", Symbol::And, &["C", "D"])
            .production("B", Symbol::Not, &["C"])
            .production("C", Symbol::LessThan, &["X", "Two"])
            .production("D", Symbol::Equal, &["X", "One"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Y", Symbol::NegVar("x".to_string()), &[])
            .production("Y", Symbol::Num(1), &[])
            .production("One", Symbol::Num(1), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1, 2, 5]);
        assert_demand_driven_matches_all_masks(&grammar, &examples);
    }

    #[test]
    fn demanded_copies_match_the_all_masks_system_through_a_comparison() {
        // K is read only by the comparison K < X, never by an integer
        // production of another nonterminal.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("K", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("Zero", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "X", "Zero"])
            .production("B", Symbol::LessThan, &["K", "X"])
            .production("K", Symbol::Plus, &["K", "Two"])
            .production("K", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Zero", Symbol::Num(0), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1, 2, 4]);
        assert_demand_driven_matches_all_masks(&grammar, &examples);
    }

    #[test]
    fn demanded_copies_match_the_all_masks_system_with_a_bool_start() {
        // Start: Bool ::= S < X | Not(Start);  S ::= ite(Start, X, X + 1)
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Bool)
            .nonterminal("S", Sort::Int)
            .nonterminal("Succ", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("One", Sort::Int)
            .production("Start", Symbol::LessThan, &["S", "X"])
            .production("Start", Symbol::Not, &["Start"])
            .production("S", Symbol::IfThenElse, &["Start", "X", "Succ"])
            .production("S", Symbol::Num(0), &[])
            .production("Succ", Symbol::Plus, &["X", "One"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("One", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [-1, 0, 2]);
        assert_demand_driven_matches_all_masks(&grammar, &examples);
    }

    /// SolveMutual as a loop over the public steps, each `solve_bool` call
    /// computing every comparison afresh.
    fn public_steps_solve_mutual(
        grammar: &Grammar,
        examples: &ExampleSet,
        stratified: bool,
    ) -> CliaAnalysis {
        let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
            .int_nonterminals()
            .into_iter()
            .map(|nt| (nt, SemiLinearSet::zero()))
            .collect();
        let mut prev_bools = None;
        let (mut outer_iterations, mut bool_iterations) = (0, 0);
        loop {
            let (bools, iterations) = solve_bool(grammar, examples, &int_values);
            bool_iterations += iterations;
            if prev_bools.as_ref() == Some(&bools) {
                return CliaAnalysis {
                    int_values,
                    bool_values: bools,
                    outer_iterations,
                    bool_iterations,
                };
            }
            int_values = solve_int(grammar, examples, &bools, stratified, true).unwrap();
            prev_bools = Some(bools);
            outer_iterations += 1;
        }
    }

    /// Requires [`solve_mutual`], which reuses comparisons across rounds,
    /// to give the values, iteration counts and exactness of the loop over
    /// the public steps, at both `stratified` settings. Returns the number
    /// of SolveMutual rounds.
    fn assert_solve_mutual_matches_public_steps(grammar: &Grammar, examples: &ExampleSet) -> usize {
        let mut rounds = 0;
        for stratified in [true, false] {
            let (analysis, exact) = solve_mutual(grammar, examples, stratified, true).unwrap();
            let reference = public_steps_solve_mutual(grammar, examples, stratified);
            assert!(exact, "stratified {stratified}");
            assert_eq!(
                analysis.int_values, reference.int_values,
                "stratified {stratified}"
            );
            assert_eq!(
                analysis.bool_values, reference.bool_values,
                "stratified {stratified}"
            );
            assert_eq!(analysis.outer_iterations, reference.outer_iterations);
            assert_eq!(analysis.bool_iterations, reference.bool_iterations);
            rounds = analysis.outer_iterations;
        }
        rounds
    }

    /// Start ::= ite(B, X, Succ) | 0;  Succ ::= Start + 1;
    /// B ::= X < Start | Zero < X. `X` and `Zero` keep their values in
    /// every round, `Start` does not.
    fn unchanged_operand_grammar() -> Grammar {
        GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Succ", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("Zero", Sort::Int)
            .nonterminal("One", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "X", "Succ"])
            .production("Start", Symbol::Num(0), &[])
            .production("Succ", Symbol::Plus, &["Start", "One"])
            .production("B", Symbol::LessThan, &["X", "Start"])
            .production("B", Symbol::LessThan, &["Zero", "X"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Zero", Symbol::Num(0), &[])
            .production("One", Symbol::Num(1), &[])
            .build()
            .unwrap()
    }

    #[test]
    fn solve_mutual_matches_the_public_steps_on_g2() {
        for xs in [vec![1, 2], vec![0], vec![1, 2, 3]] {
            let examples = ExampleSet::for_single_var("x", xs);
            assert_solve_mutual_matches_public_steps(&g2(), &examples);
        }
    }

    #[test]
    fn solve_mutual_matches_the_public_steps_on_nested_ite() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Inner", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("C", Sort::Bool)
            .nonterminal("X", Sort::Int)
            .nonterminal("One", Sort::Int)
            .nonterminal("Zero", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "Inner", "Start"])
            .production("Start", Symbol::Plus, &["X", "One"])
            .production("Start", Symbol::Num(0), &[])
            .production("Inner", Symbol::IfThenElse, &["C", "X", "Start"])
            .production("B", Symbol::LessThan, &["X", "Start"])
            .production("C", Symbol::LessThan, &["Zero", "X"])
            .production("C", Symbol::Equal, &["X", "One"])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("One", Symbol::Num(1), &[])
            .production("Zero", Symbol::Num(0), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [0, 1, 3]);
        assert_solve_mutual_matches_public_steps(&grammar, &examples);
    }

    #[test]
    fn solve_mutual_matches_the_public_steps_with_an_unchanged_operand() {
        let examples = ExampleSet::for_single_var("x", [-1, 0, 2]);
        let rounds =
            assert_solve_mutual_matches_public_steps(&unchanged_operand_grammar(), &examples);
        assert!(
            rounds >= 2,
            "the comparisons must be met again ({rounds} rounds)"
        );
    }

    #[test]
    fn comparisons_with_unchanged_operands_are_kept_and_read() {
        let grammar = unchanged_operand_grammar();
        let examples = ExampleSet::for_single_var("x", [-1, 0, 2]);
        let nt = |name: &str| NonTerminal::new(name);
        let zeros: BTreeMap<NonTerminal, SemiLinearSet> = grammar
            .int_nonterminals()
            .into_iter()
            .map(|nt| (nt, SemiLinearSet::zero()))
            .collect();
        let mut comparisons = Comparisons::new();
        let (bools, _, exact) = solve_bool_exact(&grammar, &examples, &zeros, &mut comparisons);
        assert!(exact);
        assert_eq!(comparisons.len(), 2, "both comparisons are stored");
        let next = solve_int(&grammar, &examples, &bools, true, true).unwrap();
        assert_ne!(next[&nt("X")], zeros[&nt("X")]);
        forget_changed(&mut comparisons, &zeros, &next);
        assert!(comparisons.is_empty(), "every operand changed in round 1");

        let (bools, _, _) = solve_bool_exact(&grammar, &examples, &next, &mut comparisons);
        let after = solve_int(&grammar, &examples, &bools, true, true).unwrap();
        assert_ne!(after[&nt("Start")], next[&nt("Start")]);
        forget_changed(&mut comparisons, &next, &after);
        let zero_x = (Rel::Lt, nt("Zero"), nt("X"));
        let kept: Vec<_> = comparisons.keys().collect();
        assert_eq!(kept, vec![&zero_x], "only `Zero < X` kept both operands");
        // The next round reads the kept result instead of recomputing it:
        // a planted (t,t,t), which `B` does not hold otherwise, shows up.
        let trues = BoolVec::trues(examples.len());
        let has_trues = |values: &BTreeMap<NonTerminal, BoolVecSet>| {
            values[&nt("B")].iter().any(|b| *b == trues)
        };
        let (bools, _, _) = solve_bool_exact(&grammar, &examples, &after, &mut comparisons.clone());
        assert!(!has_trues(&bools));
        comparisons.insert(zero_x, std::iter::once(trues.clone()).collect());
        let (bools, _, _) = solve_bool_exact(&grammar, &examples, &after, &mut comparisons);
        assert!(has_trues(&bools));
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
