//! Quantifier-free linear integer arithmetic (QF-LIA) substrate.
//!
//! This crate provides the logical machinery that the paper delegates to an
//! off-the-shelf SMT solver (CVC4 / Z3):
//!
//! * [`LinearExpr`] — linear terms `c + Σ aᵢ·xᵢ` over integer variables,
//! * [`Formula`] — Boolean combinations of linear atoms,
//! * [`Solver`] — a satisfiability checker for QF-LIA built from scratch:
//!   simplification → NNF → DNF → per-cube integer feasibility via
//!   Omega-style equality elimination, exact rational simplex and
//!   branch-and-bound,
//! * [`Model`] — satisfying assignments, usable for counterexample generation,
//! * [`interruptible`] / [`stop_requested`] — a scoped stop hook that cuts
//!   long solves short (they answer "unknown").
//!
//! # Example
//!
//! ```
//! use logic::{Formula, LinearExpr, Solver, SolverResult, Var};
//!
//! // ∃ λ ≥ 0 . o = 3λ ∧ o = 4      (the running example of the paper, Eqn. (4))
//! let o = LinearExpr::var(Var::new("o"));
//! let lam = LinearExpr::var(Var::new("lam"));
//! let f = Formula::and(vec![
//!     Formula::ge(lam.clone(), LinearExpr::constant(0)),
//!     Formula::eq(o.clone(), lam.scale(3)),
//!     Formula::eq(o, LinearExpr::constant(4)),
//! ]);
//! assert_eq!(Solver::default().check(&f), SolverResult::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
mod formula;
mod ilp;
mod interrupt;
mod model;
mod rational;
mod simplex;
mod solver;

pub use expr::{LinearExpr, Var};
pub use formula::{Atom, Formula, Rel};
pub use ilp::{Constraint, IlpProblem, IlpResult};
pub use interrupt::{interruptible, stop_requested};
pub use model::Model;
pub use rational::Rational;
pub use simplex::{LpRel, LpResult, Simplex};
pub use solver::{Solver, SolverResult};
