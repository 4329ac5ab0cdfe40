//! Grammar-flow analysis (GFA) — the equation-solving engine of the paper.
//!
//! A GFA problem (Def. 4.2) associates with every nonterminal `X` of a
//! regular tree grammar an equation
//!
//! ```text
//! n(X₀) = ⊕_{X₀ → g(X₁,…,Xₖ)} ⟦g⟧♯(n(X₁), …, n(Xₖ))
//! ```
//!
//! over a complete combine semilattice. naySL solves one kind of such
//! system: LIA⁺ productions over the semiring of semi-linear sets (§5.3,
//! Prop. 5.8), which is commutative, idempotent and ω-continuous, so the
//! least solution is computed *exactly* with Newton's method
//! ([`newton::solve`], Lemma 5.2). This crate provides:
//!
//! * [`EquationSystem`] / [`Monomial`] — polynomial equation systems over
//!   [`semilinear::SemiLinearSet`],
//! * [`newton`] — Newtonian Program Analysis, including the matrix-star
//!   (Lehmann/Floyd–Warshall–Kleene) solver for the linearised systems,
//! * [`strata`] — the stratification optimisation of §7: Tarjan SCCs of the
//!   variable-dependence graph, solved bottom-up in topological order.
//!
//! The solvers take two plain values besides the system: the vector
//! dimension (the number of examples), for the semiring `1` and `0⊛ = 1`,
//! and whether to apply the subsumption pruning of §7 after each step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equations;
#[cfg(test)]
mod kleene;
pub mod newton;
pub mod strata;

pub use equations::{EquationSystem, Monomial, Solution};
