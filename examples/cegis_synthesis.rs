//! The CEGIS loop on a *realizable* problem: the driver of Alg. 2 is also a
//! synthesizer — when the specification can be met, the bottom-up term
//! search (`enumerative::search`, the search nope runs too) finds a
//! candidate consistent with the examples, the verifier confirms it on all
//! inputs, and the loop returns the program instead of an unrealizability
//! proof.
//!
//! Run with `cargo run --example cegis_synthesis`.

use logic::{Formula, LinearExpr, Var};
use nay::{CegisOutcome, Nay};
use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol};

fn main() {
    // Search space: conditionals over x, y with comparisons — enough to
    // express max(x, y).
    let grammar = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .nonterminal("B", Sort::Bool)
        .production("Start", Symbol::Var("x".to_string()), &[])
        .production("Start", Symbol::Var("y".to_string()), &[])
        .production("Start", Symbol::Num(0), &[])
        .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
        .production("B", Symbol::LessThan, &["Start", "Start"])
        .build()
        .expect("well-formed grammar");

    // Specification: f(x, y) is the maximum of x and y.
    let out = LinearExpr::var(Spec::output_var());
    let x = LinearExpr::var(Var::new("x"));
    let y = LinearExpr::var(Var::new("y"));
    let spec = Spec::new(
        Formula::and(vec![
            Formula::ge(out.clone(), x.clone()),
            Formula::ge(out.clone(), y.clone()),
            Formula::or(vec![Formula::eq(out.clone(), x), Formula::eq(out, y)]),
        ]),
        vec!["x".to_string(), "y".to_string()],
        Sort::Int,
    );
    let problem = Problem::new("max2-synthesis", grammar, spec);

    let (outcome, stats) = Nay::new().run(&problem);
    match outcome {
        CegisOutcome::Solution(term) => {
            println!("synthesized: f(x, y) = {term}");
            println!(
                "  {} CEGIS iteration(s), {} example(s), {} unrealizability check(s), {:?}",
                stats.cegis_iterations, stats.num_examples, stats.gfa_checks, stats.total_time
            );
            println!("  largest term search: {} node(s)", stats.arena_terms);
            // sanity-check the synthesized program on a few inputs
            for (a, b) in [(3i64, 9i64), (9, 3), (-4, -7), (5, 5)] {
                let input = sygus::Example::from_pairs([("x", a), ("y", b)]);
                let value = term.eval(&input).expect("evaluates");
                assert_eq!(value.as_i64(), a.max(b), "max({a},{b})");
            }
            println!("verified max() behaviour on sample inputs ✔");
        }
        other => panic!("expected a synthesized solution, got {other:?}"),
    }
}
