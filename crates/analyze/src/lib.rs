//! Static semantic analysis of SyGuS problems.
//!
//! The paper's thesis is that unrealizability can often be settled by
//! analyzing the grammar and the specification instead of searching; this
//! crate applies the same idea *before* any engine runs. [`analyze_source`]
//! reports the diagnostics of the one SyGuS-IF front end,
//! [`sygus::parser::parse_with_diagnostics`] (sort checking of grammar
//! productions and constraint terms, unbound-variable / duplicate /
//! arity / overflow diagnostics, each at a 1-based `line:col`), and runs two
//! layers on the problem it elaborates, each usable on its own:
//!
//! 1. [`grammar`] — structural analyses of a parsed [`sygus::Grammar`]:
//!    reachability, productivity, emptiness, useless productions, and
//!    finite-language detection with exact enumeration when the language is
//!    small.
//! 2. [`presolve`] — an abstract pre-solve that can statically return
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

pub use grammar::{analyze_grammar, FiniteLanguage, GrammarReport};
pub use presolve::{PresolveOutcome, PresolveReason, PresolveVerdict, Presolver};
pub use sygus::parser::{Diagnostic, Severity};

use sygus::parser;

/// Everything the analyzer can say about one SyGuS-IF source text.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The front end's diagnostics, in the order they were found.
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

/// Reads a SyGuS-IF source text once and runs both analysis layers on it.
///
/// The diagnostics are always reported. The grammar report and the
/// presolve only run when the source has no error, so that it elaborates
/// into a [`sygus::Problem`] (they need the resolved grammar and
/// specification).
pub fn analyze_source(source: &str, name: &str) -> AnalysisReport {
    let (problem, diagnostics) = parser::parse_with_diagnostics(source, name);
    let (grammar, presolve) = match problem {
        Some(problem) => {
            let grammar = analyze_grammar(problem.grammar());
            let outcome = Presolver::new().presolve(&problem);
            (Some(grammar), Some(outcome))
        }
        None => (None, None),
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

/// The well-formedness layer of [`analyze_source`]: the front end's
/// diagnostics as the analyzer reports them.
#[cfg(test)]
mod wellformed {
    mod tests {
        use super::super::*;

        fn check(src: &str) -> Vec<Diagnostic> {
            analyze_source(src, "check").diagnostics
        }

        fn codes(src: &str) -> Vec<&'static str> {
            check(src).into_iter().map(|d| d.code).collect()
        }

        const CLEAN: &str = r#"
          (set-logic LIA)
          (synth-fun f ((x Int)) Int
            ((Start Int) (X Int))
            ((Start Int ((+ X Start) 0))
             (X Int (x))))
          (declare-var x Int)
          (constraint (= (f x) (+ (* 2 x) 2)))
          (check-synth)
        "#;

        #[test]
        fn clean_file_has_no_diagnostics() {
            assert_eq!(check(CLEAN), vec![]);
        }

        #[test]
        fn parse_errors_become_diagnostics() {
            let diags = check("(a (b)");
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].code, "parse-error");
            assert_eq!(diags[0].severity, Severity::Error);
        }

        #[test]
        fn unknown_grammar_atom_is_located() {
            let diags = check(
                "(synth-fun f ((x Int)) Int\n  ((Start Int (y))))\n(constraint (= (f x) x))\n(check-synth)",
            );
            let d = diags
                .iter()
                .find(|d| d.code == "unknown-atom")
                .expect("unknown-atom diagnostic");
            assert_eq!(d.line, 2);
            assert!(d.message.contains('y'));
        }

        #[test]
        fn f_arity_mismatch_is_reported_and_the_parser_rejects() {
            // every error rejects the file, this one included
            let src = r#"
              (synth-fun f ((x Int)) Int ((Start Int (x 0))))
              (declare-var x Int)
              (constraint (= (f x x) x))
              (check-synth)
            "#;
            assert!(codes(src).contains(&"arity-mismatch"), "{:?}", check(src));
            assert!(sygus::parser::parse_problem(src, "zip").is_err());
        }

        #[test]
        fn duplicate_nonterminal_and_return_sort_mismatch() {
            let dup = r#"
              (synth-fun f ((x Int)) Int
                ((Start Int (x)) (Start Int (0))))
              (constraint (= (f x) x))
              (check-synth)
            "#;
            assert!(codes(dup).contains(&"duplicate-nonterminal"));
            let mismatch = r#"
              (synth-fun f ((x Int)) Bool ((Start Int (x))))
              (constraint (= (f x) x))
              (check-synth)
            "#;
            assert!(codes(mismatch).contains(&"return-sort-mismatch"));
        }

        #[test]
        fn ill_sorted_rules_are_reported() {
            let src = r#"
              (synth-fun f ((x Int)) Int
                ((Start Int) (B Bool))
                ((Start Int ((+ B Start) x))
                 (B Bool ((< Start Start)))))
              (constraint (= (f x) x))
              (check-synth)
            "#;
            assert!(codes(src).contains(&"ill-sorted"));
        }

        #[test]
        fn constraint_diagnostics() {
            let unknown = r#"
              (synth-fun f ((x Int)) Int ((Start Int (x))))
              (constraint (= (f x) zz))
              (check-synth)
            "#;
            assert!(codes(unknown).contains(&"unbound-variable"));
            let nonlinear = r#"
              (synth-fun f ((x Int)) Int ((Start Int (x))))
              (declare-var x Int)
              (constraint (= (f x) (* x x)))
              (check-synth)
            "#;
            assert!(codes(nonlinear).contains(&"nonlinear"));
            // cancelling coefficients are linear, exactly as the parser judges
            let cancelling = r#"
              (synth-fun f ((x Int)) Int ((Start Int (x))))
              (declare-var x Int)
              (constraint (= (f x) (* (- x x) x)))
              (check-synth)
            "#;
            assert!(!codes(cancelling).contains(&"nonlinear"));
        }

        #[test]
        fn multiple_diagnostics_in_one_pass() {
            let src = r#"
              (bogus-command)
              (synth-fun f ((x Int)) Int ((Start Int (y z))))
              (constraint (= (f x) w))
              (check-synth)
            "#;
            let diags = check(src);
            assert!(
                diags.len() >= 4,
                "expected several diagnostics, got {diags:?}"
            );
        }

        #[test]
        fn missing_pieces_are_warned_or_errored() {
            let diags = check("(set-logic LIA)");
            let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
            assert!(codes.contains(&"missing-synth-fun"));
            assert!(codes.contains(&"no-constraint"));
            assert!(codes.contains(&"missing-check-synth"));
        }

        #[test]
        fn diagnostics_render_with_position_and_code() {
            let d = Diagnostic {
                line: 3,
                col: 7,
                severity: Severity::Error,
                code: "ill-sorted",
                message: "example".to_string(),
            };
            assert_eq!(d.to_string(), "3:7: error[ill-sorted]: example");
        }
    }
}
