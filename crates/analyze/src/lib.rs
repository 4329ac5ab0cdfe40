//! Static semantic analysis of SyGuS problems.
//!
//! The paper's thesis is that unrealizability can often be settled by
//! analyzing the grammar and the specification instead of searching; this
//! crate applies the same idea *before* any engine runs. It provides three
//! layers, each usable on its own:
//!
//! 1. [`wellformed`] — a diagnostic checker over the raw s-expressions of a
//!    SyGuS-IF file: sort checking of grammar productions and constraint
//!    terms, unbound-variable / duplicate-nonterminal / arity diagnostics,
//!    each carrying a 1-based `line:col` source position. Unlike the parser
//!    (which stops at the first error) the checker keeps going and reports
//!    everything it finds, including problems the parser silently tolerates
//!    (e.g. applications of the synthesis function with the wrong number of
//!    arguments).
//! 2. [`grammar`] — structural analyses of a parsed [`sygus::Grammar`]:
//!    reachability, productivity, emptiness, useless productions, and
//!    finite-language detection with exact enumeration when the language is
//!    small.
//! 3. [`presolve`] — an abstract pre-solve that can statically return
//!    `Unrealizable` (the abstract output cannot satisfy the spec on some
//!    concrete input) or `Realizable` (a finite language contains a
//!    verified witness), always with a checkable reason
//!    ([`presolve::Presolver::recheck`]). It owns no abstract domain: the
//!    abstract output is [`chc::HornSolver`]'s interval × congruence
//!    fixpoint over the grammar's nonterminals, the same interpreter
//!    nayHorn runs, refuted through [`chc::refutation_query`].
//!
//! The presolve verdicts are *sound by construction*: `Unrealizable` is only
//! reported when an exact QF-LIA query proves that no value in the abstract
//! output can satisfy the specification (or an exhaustive finite enumeration
//! rules every candidate out), and `Realizable` only when a concrete witness
//! term from the grammar passes the exact counterexample query. A sound
//! engine can therefore never contradict a presolve verdict — the portfolio
//! relies on this to skip engine dispatch without ever flipping a verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod grammar;
pub mod presolve;
pub mod wellformed;

pub use grammar::{analyze_grammar, FiniteLanguage, GrammarReport};
pub use presolve::{PresolveOutcome, PresolveReason, PresolveVerdict, Presolver};
pub use wellformed::{Diagnostic, Severity};

use sygus::parser;

/// Everything the analyzer can say about one SyGuS-IF source text.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Well-formedness diagnostics, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// Grammar structure report; `None` when the problem did not parse.
    pub grammar: Option<GrammarReport>,
    /// Presolve outcome; `None` when the problem did not parse.
    pub presolve: Option<PresolveOutcome>,
}

impl AnalysisReport {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when the source produced no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs all three analysis layers on a SyGuS-IF source text.
///
/// The well-formedness checker always runs. The grammar report and the
/// presolve only run when the source parses into a [`sygus::Problem`]
/// (they need the resolved grammar and specification).
pub fn analyze_source(source: &str, name: &str) -> AnalysisReport {
    let diagnostics = wellformed::check(source);
    let (grammar, presolve) = match parser::parse_problem(source, name) {
        Ok(problem) => {
            let grammar = analyze_grammar(problem.grammar());
            let outcome = Presolver::new().presolve(&problem);
            (Some(grammar), Some(outcome))
        }
        Err(_) => (None, None),
    };
    AnalysisReport {
        diagnostics,
        grammar,
        presolve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_problem_reports_all_layers() {
        let src = r#"
          (set-logic LIA)
          (synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))
          (declare-var x Int)
          (constraint (= (f x) x))
          (check-synth)
        "#;
        let report = analyze_source(src, "clean");
        assert!(report.is_clean(), "unexpected {:?}", report.diagnostics);
        assert!(report.grammar.is_some());
        assert!(report.presolve.is_some());
    }

    #[test]
    fn broken_problem_reports_diagnostics_only() {
        let report = analyze_source("(synth-fun f ((x Int)) Int ((Start Int (y))))", "broken");
        assert!(report.error_count() > 0);
        assert!(report.grammar.is_none());
        assert!(report.presolve.is_none());
    }
}
