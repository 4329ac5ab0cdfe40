//! Portfolio solving: race the exact CHC/GFA-based checker (`nay`) against
//! the approximate program-reachability baseline (`nope`) and return the
//! first definitive verdict.
//!
//! The paper's central empirical point (§8) is that the two engines are
//! *complementary*: each proves instances the other cannot, or proves them
//! far faster. A portfolio exploits that directly — both engines start on
//! the same problem, the first to reach a definitive verdict trips a shared
//! [`Cancel`] token, and the other aborts within one loop iteration. The
//! common case (one engine much faster) then runs at the speed of the
//! winner plus the loser's cancellation latency.
//!
//! Layering:
//!
//! * [`Cancel`] (defined in `runner`, re-exported here as the portfolio's
//!   public token type) is polled by `nay`'s CEGIS loop and `nope`'s
//!   bounded search / abstract fixpoint once per iteration;
//! * [`engines`] adapts the two solvers to a common [`SolveVerdict`]
//!   vocabulary — including the example-growing outer loop that `nope`
//!   needs to attack a bare SyGuS problem;
//! * [`race`] runs both adapters as jobs on a caller-owned
//!   [`runner::WarmPool`] ([`Portfolio::race_on_pool`], the one race entry
//!   point) and assembles a [`RaceReport`] with per-engine timing,
//!   iteration counts, and the loser's cancellation latency.
//!
//! In front of the race sits a *presolve* stage (crate `analyze`, on by
//! default): a static analyzer that can settle a problem without running
//! any engine — empty or exhaustively-refuted finite languages, verified
//! finite-language witnesses, and refutations through `chc`'s interval ×
//! congruence fixpoint.
//! Its verdicts are sound by construction and additionally re-validated
//! through [`analyze::Presolver::recheck`] before they are trusted, so the
//! presolve can never flip a race verdict — it only skips engine work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod race;

pub use engines::{solve_nay, solve_nope, EngineOutcome, NopeEngine, SolveVerdict};
pub use race::{EngineReport, Portfolio, PresolveSummary, RaceReport};
pub use runner::Cancel;

#[cfg(test)]
mod test_problems {
    //! The shared example problems of the unit tests.

    use logic::{Formula, LinearExpr, Var};
    use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol};

    /// §2, grammar G1 with spec `f(x) = 2x + 2`: unrealizable, and both
    /// engines can prove it.
    pub fn section2_lia() -> Problem {
        let grammar = GrammarBuilder::new("Start")
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
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        Problem::new("section2-lia", grammar, spec)
    }

    /// `Start ::= x | 1 | Start + Start` with spec `f(x) = x + 2`:
    /// realizable, and only nay can prove it.
    pub fn realizable_xplus2() -> Problem {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        Problem::new("xplus2", grammar, spec)
    }

    /// Gconst (Ex. 3.8) with spec `f(x) > x`: unrealizable but provable by
    /// neither engine.
    pub fn gconst() -> Problem {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .production("Start", Symbol::Plus, &["Start", "Start"])
            .production("Start", Symbol::Num(1), &[])
            .build()
            .unwrap();
        let spec = Spec::new(
            Formula::gt(
                LinearExpr::var(Spec::output_var()),
                LinearExpr::var(Var::new("x")),
            ),
            vec!["x".to_string()],
            Sort::Int,
        );
        Problem::new("gconst", grammar, spec)
    }

    /// `Start ::= (+ N1 Z)`, `Nᵢ ::= (+ Nᵢ₊₁ Z)` for `i < 120`,
    /// `N120 ::= 5`, `Z ::= 0`, with spec `f(x) = 5`: realizable by
    /// `5+0+…+0`, whose value reaches `Start` only after 121 Jacobi rounds
    /// of a Kleene iteration. `looped` adds `Start ::= 7 | (+ Start Z)`,
    /// which makes the language infinite.
    pub fn deep_chain(looped: bool) -> Problem {
        let names: Vec<String> = (1..=120).map(|i| format!("N{i}")).collect();
        let mut builder = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Z", Sort::Int)
            .production("Start", Symbol::Plus, &["N1", "Z"])
            .production("Z", Symbol::Num(0), &[]);
        if looped {
            builder = builder.production("Start", Symbol::Num(7), &[]).production(
                "Start",
                Symbol::Plus,
                &["Start", "Z"],
            );
        }
        for (i, name) in names.iter().enumerate() {
            builder = builder.nonterminal(name, Sort::Int);
            builder = match names.get(i + 1) {
                Some(next) => builder.production(name, Symbol::Plus, &[next, "Z"]),
                None => builder.production(name, Symbol::Num(5), &[]),
            };
        }
        let spec = Spec::output_equals(LinearExpr::constant(5), vec!["x".to_string()]);
        Problem::new("deep-chain", builder.build().unwrap(), spec)
    }
}
