//! Umbrella crate of the *SyGuS unrealizability* reproduction.
//!
//! This workspace reproduces **"Exact and Approximate Methods for Proving
//! Unrealizability of Syntax-Guided Synthesis Problems"** (Hu, Cyphert,
//! D'Antoni, Reps — PLDI 2020): the `nay` tool, its semi-linear-set decision
//! procedures for LIA and CLIA SyGuS problems over examples, the `nayHorn`
//! constrained-Horn-clause mode, the `nope` baseline, and the benchmark
//! suite and experiment harness of the paper's evaluation.
//!
//! The individual crates are re-exported here so that examples and
//! downstream users can depend on a single package:
//!
//! * [`sygus`] — terms, grammars, examples, specifications, and the one
//!   SyGuS-IF front end (diagnostics and elaboration in one pass),
//! * [`logic`] — QF-LIA formulas and the built-in solver,
//! * [`analyze`] — static semantic analysis: the SyGuS-IF front end's
//!   diagnostics, grammar structure reports, and a presolve that refutes through
//!   `chc`'s interval × congruence fixpoint,
//! * [`semilinear`] — semi-linear sets and Boolean-vector sets,
//! * [`gfa`] — grammar-flow analysis over semi-linear sets: Newton's
//!   method, stratification,
//! * [`chc`] — the approximate constrained-Horn-clause solver: the one abstract interpreter of grammars and the Horn back end of
//!   both approximate provers (nayHorn and nope), also run by the presolve,
//! * [`enumerative`] — the one bottom-up term search over output vectors
//!   on examples: CEGIS's synthesizer and nope's bounded search,
//! * [`nope`] — the program-reachability baseline, whose bounded search
//!   and fixpoint both run on the grammar,
//! * [`nay`] — Alg. 1 / Alg. 2: the unrealizability checker and CEGIS loop,
//! * [`runner`] — the execution substrate: one warm worker pool,
//!   cancellation-only deadlines, panic isolation, and JSON perf reports,
//! * [`benchmarks`] — the LimitedPlus / LimitedIf / LimitedConst families.
//!
//! # Quick start
//!
//! ```
//! use nay::check::{check_unrealizable, Verdict};
//! use nay::Mode;
//! use sygus::{parser, ExampleSet};
//!
//! let problem = parser::parse_problem(
//!     r#"
//!     (set-logic LIA)
//!     (synth-fun f ((x Int)) Int
//!       ((Start Int) (X Int))
//!       ((Start Int ((+ X Start) 0))
//!        (X Int (x))))
//!     (declare-var x Int)
//!     (constraint (= (f x) (+ (* 2 x) 2)))
//!     (check-synth)
//!     "#,
//!     "quickstart",
//! ).unwrap();
//! // the grammar only produces k·x, which can match 2x+2 on one example but
//! // not on the two examples x = 1 and x = 2 simultaneously
//! let examples = ExampleSet::for_single_var("x", [1, 2]);
//! let outcome = check_unrealizable(&problem, &examples, &Mode::default());
//! assert_eq!(outcome.verdict, Verdict::Unrealizable);
//! ```

#![forbid(unsafe_code)]

pub use analyze;
pub use benchmarks;
pub use chc;
pub use enumerative;
pub use gfa;
pub use logic;
pub use nay;
pub use nope;
pub use runner;
pub use semilinear;
pub use sygus;
