//! **nay** — proving unrealizability of syntax-guided synthesis problems.
//!
//! This crate is the paper's primary contribution: a framework that reduces
//! unrealizability of a SyGuS problem over a finite set of examples to
//! solving a system of equations in an abstract domain (grammar-flow
//! analysis, §4), together with
//!
//! * an **exact decision procedure** for LIA problems with examples, based on
//!   the semiring of semi-linear sets and Newton's method (§5, [`lia`]);
//!   its equations are the CLIA procedure's RemIf system with one
//!   all-true mask, built by the same code,
//! * an **exact decision procedure** for CLIA problems with examples, which
//!   alternates a finite fixed point over Boolean-vector sets with
//!   semi-linear solving and eliminates `IfThenElse` via the `RemIf`
//!   rewriting (§6, [`clia`]),
//! * the **Alg. 1** driver [`check::check_unrealizable`] that turns a GFA
//!   solution into an SMT query via symbolic concretization (Thm. 4.5),
//! * the **Alg. 2** CEGIS loop [`cegis::Nay`] combining the unrealizability
//!   verifier with a synthesizer (the bottom-up term search of the
//!   `enumerative` crate, which nope's bounded half shares) and a
//!   counterexample-producing verifier (§7),
//! * the approximate `nayHorn` mode backed by the `chc` crate.
//!
//! # Quick start
//!
//! ```
//! use nay::check::{check_unrealizable, Verdict};
//! use nay::Mode;
//! use logic::{LinearExpr, Var};
//! use sygus::{ExampleSet, GrammarBuilder, Sort, Spec, Symbol, Problem};
//!
//! // Section 2 of the paper: G1 generates 3k·x, the spec wants 2x + 2.
//! let grammar = GrammarBuilder::new("Start")
//!     .nonterminal("Start", Sort::Int)
//!     .nonterminal("S1", Sort::Int)
//!     .nonterminal("S2", Sort::Int)
//!     .nonterminal("S3", Sort::Int)
//!     .production("Start", Symbol::Plus, &["S1", "Start"])
//!     .production("Start", Symbol::Num(0), &[])
//!     .production("S1", Symbol::Plus, &["S2", "S3"])
//!     .production("S2", Symbol::Plus, &["S3", "S3"])
//!     .production("S3", Symbol::Var("x".to_string()), &[])
//!     .build().unwrap();
//! let spec = Spec::output_equals(
//!     LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
//!     vec!["x".to_string()],
//! );
//! let problem = Problem::new("section2", grammar, spec);
//! let examples = ExampleSet::for_single_var("x", [1]);
//! let outcome = check_unrealizable(&problem, &examples, &Mode::default());
//! assert_eq!(outcome.verdict, Verdict::Unrealizable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cegis;
pub mod check;
pub mod clia;
pub mod lia;
mod modes;
pub mod verifier;

pub use cegis::{CegisOutcome, CegisStats, Nay};
pub use check::{check_unrealizable, CheckOutcome, Verdict};
pub use modes::Mode;
