//! The semi-linear-set GFA instantiation for LIA⁺ grammars (§5.3).
//!
//! Every nonterminal becomes a variable of a polynomial equation system over
//! the semiring of semi-linear sets, and every production contributes a
//! monomial according to the abstract semantics of Eqns. (21)–(24)
//! (Eqn. (25)). That system is the RemIf system of the CLIA procedure with
//! its one all-true mask, so [`analyze`] builds and solves it with the same
//! code as [`clia::solve_int`].
//!
//! The least solution, computed exactly with Newton's method, assigns to each
//! nonterminal `X` the set `{⟦e⟧_E | e ∈ L_G(X)}` (Lemma 5.6).

use crate::clia;
use semilinear::SemiLinearSet;
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, NonTerminal, SygusError};

/// The result of the LIA analysis: the exact abstraction of every
/// nonterminal, plus solver statistics.
#[derive(Clone, Debug)]
pub struct LiaAnalysis {
    /// The exact set of output vectors producible by each nonterminal.
    pub values: BTreeMap<NonTerminal, SemiLinearSet>,
    /// Number of Newton iterations performed (summed over strata).
    pub newton_iterations: usize,
    /// Total size (Σ |Vᵢ|+1) of the semi-linear set computed for the start
    /// symbol.
    pub start_size: usize,
}

impl LiaAnalysis {
    /// The semi-linear set of the start nonterminal.
    pub fn start_value<'a>(&'a self, grammar: &Grammar) -> &'a SemiLinearSet {
        &self.values[grammar.start()]
    }
}

/// Runs the exact LIA analysis: builds the equations of Eqn. (25) and
/// solves them with Newton's method (stratified or monolithic), pruning
/// subsumed linear sets when `prune` is set.
///
/// The Newton solve polls the [`logic`] stop hook before every iteration
/// and stratum. Once it fires the values are a cut-short
/// under-approximation: a caller inside a scope reads
/// [`logic::stop_requested`] after the call, and such values must never
/// reach a final query.
///
/// # Errors
/// Returns an error if the grammar contains `Minus` (apply
/// [`sygus::rewrite::to_plus_form`] first), a non-LIA symbol, or refers to an
/// input variable that some example does not bind.
pub fn analyze(
    grammar: &Grammar,
    examples: &ExampleSet,
    stratified: bool,
    prune: bool,
) -> Result<LiaAnalysis, SygusError> {
    if let Some(p) = grammar.productions().iter().find(|p| !p.symbol.is_lia()) {
        return Err(SygusError::GrammarError(format!(
            "symbol {} is not an LIA⁺ symbol; use the CLIA procedure",
            p.symbol
        )));
    }
    let (values, newton_iterations) =
        clia::solve_remif(grammar, examples, &BTreeMap::new(), stratified, prune)?;
    let start_size = values.get(grammar.start()).map(|v| v.size()).unwrap_or(0);
    Ok(LiaAnalysis {
        values,
        newton_iterations,
        start_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::IntVec;
    use sygus::{GrammarBuilder, Sort, Symbol};

    fn g1() -> Grammar {
        GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("S1", Sort::Int)
            .nonterminal("S2", Sort::Int)
            .nonterminal("S3", Sort::Int)
            .production("Start", Symbol::Plus, &["S1", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("S1", Symbol::Plus, &["S2", "S3"])
            .production("S2", Symbol::Plus, &["S3", "S3"])
            .production("S3", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap()
    }

    #[test]
    fn example_5_7() {
        // E = ⟨1, 2⟩: nG(Start) = {(0,0) + λ(3,6)}
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g1(), &examples, true, true).unwrap();
        let start = analysis.start_value(&g1());
        assert!(start.contains(&IntVec::from(vec![0, 0])));
        assert!(start.contains(&IntVec::from(vec![3, 6])));
        assert!(start.contains(&IntVec::from(vec![30, 60])));
        assert!(!start.contains(&IntVec::from(vec![3, 5])));
        assert!(!start.contains(&IntVec::from(vec![4, 8])));
        assert_eq!(
            analysis.values[&NonTerminal::new("S1")],
            SemiLinearSet::singleton(IntVec::from(vec![3, 6]))
        );
        assert_eq!(
            analysis.values[&NonTerminal::new("S2")],
            SemiLinearSet::singleton(IntVec::from(vec![2, 4]))
        );
    }

    #[test]
    fn exactness_against_enumeration() {
        // Lemma 5.6 (sampled): the semi-linear set of the start symbol equals
        // the set of outputs of enumerated terms, in both directions up to a
        // sampling bound.
        let examples = ExampleSet::for_single_var("x", [1, 3]);
        let grammar = g1();
        let analysis = analyze(&grammar, &examples, true, true).unwrap();
        let start = analysis.start_value(&grammar);
        for term in grammar.terms_up_to_size(grammar.start(), 15, 200) {
            let out = term.eval_on(&examples).unwrap();
            let v = IntVec::from(out.as_int().unwrap().to_vec());
            assert!(
                start.contains(&v),
                "enumerated output {v} must be abstracted"
            );
        }
        // and some members of the abstraction are indeed outputs (spot check)
        assert!(start.contains(&IntVec::from(vec![3, 9])));
        assert!(start.contains(&IntVec::from(vec![6, 18])));
    }

    #[test]
    fn minus_grammars_must_be_rewritten_first() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Minus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1]);
        assert!(analyze(&g, &examples, true, true).is_err());
        // after h(G) the analysis succeeds and captures e.g. 1 - 1 = 0, 1 - (1-1) = 1, …
        let h = sygus::rewrite::to_plus_form(&g).unwrap();
        let analysis = analyze(&h, &examples, true, true).unwrap();
        let start = &analysis.values[h.start()];
        assert!(start.contains(&IntVec::from(vec![1])));
        assert!(start.contains(&IntVec::from(vec![0])));
        assert!(start.contains(&IntVec::from(vec![-1])));
        assert!(start.contains(&IntVec::from(vec![5])));
    }

    #[test]
    fn stratified_and_monolithic_agree() {
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let a = analyze(&g1(), &examples, true, true).unwrap();
        let b = analyze(&g1(), &examples, false, true).unwrap();
        for nt in g1().nonterminals() {
            assert!(
                a.values[nt].sample_equivalent(&b.values[nt], 4),
                "stratified and monolithic solutions differ on {nt}"
            );
        }
    }

    #[test]
    fn clia_grammars_are_left_to_the_clia_procedure() {
        let g = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1]);
        assert!(analyze(&g, &examples, true, true).is_err());
    }

    #[test]
    fn missing_example_variable_is_an_error() {
        let examples = ExampleSet::for_single_var("y", [1]);
        assert!(analyze(&g1(), &examples, true, true).is_err());
    }
}
