//! SyGuS substrate: ranked alphabets, terms, regular tree grammars, the
//! example-vector semantics, specifications, and problem definitions.
//!
//! This crate provides everything the unrealizability checker (crate `nay`)
//! needs to *talk about* syntax-guided synthesis problems (§3 of the paper):
//!
//! * [`Symbol`], [`Term`] — ranked alphabet and trees over it,
//! * [`Grammar`], [`Production`], [`GrammarBuilder`] — regular tree grammars
//!   (Def. 3.1),
//! * [`Example`], [`ExampleSet`], [`Output`] — the restricted semantics
//!   `⟦·⟧_E` with respect to a finite set of input examples (Ex. 3.6, §6.1),
//! * [`Spec`], [`Problem`] — SyGuS problems `(ψ, G)` (Def. 3.2) and their
//!   example-restricted variants `sy_E` (Def. 3.4),
//! * [`rewrite::to_plus_form`] — the `h(G)` rewriting that removes `Minus`
//!   (§5.2),
//! * [`parser`] — the SyGuS-IF front end, which reports every
//!   [`parser::Diagnostic`] and elaborates the problem in one pass, and
//!   the printer back to SyGuS-IF,
//! * [`encode`] — encoding of a candidate term's semantics as a QF-LIA
//!   formula, used for verification/counterexample generation,
//! * [`rng`] — the deterministic random source: the engines' example
//!   draws ([`rng::random_example`]) and the problem generator's streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
mod example;
mod grammar;
pub mod parser;
mod problem;
pub mod rewrite;
pub mod rng;
mod semantics;
mod spec;
mod term;

pub use example::{Example, ExampleSet, Output};
pub use grammar::{Grammar, GrammarBuilder, NonTerminal, Production};
pub use problem::Problem;
pub use semantics::Value;
pub use spec::Spec;
pub use term::{Sort, Symbol, Term};

/// A parse error carrying the source position of the offending token.
///
/// Lines and columns are 1-based; columns count bytes within the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What went wrong.
    pub msg: String,
}

impl ParseError {
    /// Creates a parse error at the given position.
    pub fn new(line: u32, col: u32, msg: impl Into<String>) -> Self {
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SygusError {
    /// A term or production is not well-sorted.
    SortError(String),
    /// A grammar refers to an undeclared nonterminal or is otherwise
    /// malformed.
    GrammarError(String),
    /// The SyGuS-IF input could not be parsed; carries the offending
    /// token's line and column.
    ParseError(ParseError),
    /// Evaluation failed (e.g. an input variable is missing from an example).
    EvalError(String),
}

impl std::fmt::Display for SygusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SygusError::SortError(msg) => write!(f, "sort error: {msg}"),
            SygusError::GrammarError(msg) => write!(f, "grammar error: {msg}"),
            SygusError::ParseError(e) => write!(f, "parse error at {e}"),
            SygusError::EvalError(msg) => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for SygusError {}
