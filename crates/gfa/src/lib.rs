//! Grammar-flow analysis (GFA) — the equation-solving engine of the paper.
//!
//! A GFA problem (Def. 4.2) associates with every nonterminal `X` of a
//! regular tree grammar an equation
//!
//! ```text
//! n(X₀) = ⊕_{X₀ → g(X₁,…,Xₖ)} ⟦g⟧♯(n(X₁), …, n(Xₖ))
//! ```
//!
//! over a complete combine semilattice. When the production functions are
//! built from the operations of a commutative idempotent ω-continuous
//! semiring — as is the case for semi-linear sets and LIA⁺ grammars (§5.3) —
//! the least solution can be computed *exactly* with Newton's method
//! ([`newton::solve`], Lemma 5.2). This crate provides:
//!
//! * [`Semiring`] — the algebraic interface (`0`, `1`, `⊕`, `⊗`, `⊛`),
//! * [`EquationSystem`] / [`Monomial`] — polynomial equation systems,
//! * [`kleene`] — plain Kleene iteration (for finite-height domains or as a
//!   bounded approximation),
//! * [`newton`] — Newtonian Program Analysis for commutative idempotent
//!   semirings, including the matrix-star (Lehmann/Floyd–Warshall–Kleene)
//!   solver for the linearised systems,
//! * [`strata`] — the stratification optimisation of §7: Tarjan SCCs of the
//!   variable-dependence graph, solved bottom-up in topological order,
//! * [`SemiLinearSemiring`] — the instantiation used by naySL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equations;
pub mod kleene;
pub mod newton;
mod semiring;
pub mod strata;

pub use equations::{EquationSystem, Monomial, Solution};
pub use semiring::{SemiLinearSemiring, Semiring};
