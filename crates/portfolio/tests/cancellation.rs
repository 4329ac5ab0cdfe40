//! Cancellation-latency tests: a token tripped *mid-run* is observed
//! within one loop iteration by both engines, so the portfolio's loser
//! aborts promptly instead of running to completion.

use logic::{Formula, LinearExpr, Var};
use nay::Nay;
use portfolio::{solve_nay, solve_nope, Cancel, NopeEngine, SolveVerdict};
use std::time::{Duration, Instant};
use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol};

fn var(name: &str) -> LinearExpr {
    LinearExpr::var(Var::new(name))
}

/// `if_max3` from the LimitedIf family: the maximum of three inputs needs
/// two conditionals, and the grammar allows one (`S1 ::= ite(B1, S0, S0)`
/// over a conditional-free `S0`). nay's CEGIS loop runs for seconds on it
/// even in release builds, far past the 2 ms trip.
fn slow_for_nay() -> Problem {
    let names = ["x1", "x2", "x3"];
    let mut builder = GrammarBuilder::new("S1")
        .nonterminal("S1", Sort::Int)
        .nonterminal("S0", Sort::Int)
        .nonterminal("B1", Sort::Bool);
    for level in ["S0", "S1"] {
        for x in names {
            builder = builder.production(level, Symbol::Var(x.to_string()), &[]);
        }
        builder = builder
            .production(level, Symbol::Num(0), &[])
            .production(level, Symbol::Num(1), &[])
            .production(level, Symbol::Plus, &[level, level]);
    }
    let grammar = builder
        .production("S1", Symbol::IfThenElse, &["B1", "S0", "S0"])
        .production("B1", Symbol::LessThan, &["S0", "S0"])
        .build()
        .unwrap();
    let out = || LinearExpr::var(Spec::output_var());
    let mut conjuncts: Vec<Formula> = names.iter().map(|x| Formula::ge(out(), var(x))).collect();
    conjuncts.push(Formula::or(
        names.iter().map(|x| Formula::eq(out(), var(x))),
    ));
    let spec = Spec::new(
        Formula::and(conjuncts),
        names.iter().map(|x| x.to_string()).collect(),
        Sort::Int,
    );
    Problem::new("if_max3", grammar, spec)
}

/// `Start ::= x | 1 | Start + Start` with `f(x, y, z) = x + 2`: realizable
/// on every example set, so the nope example-growing loop keeps iterating
/// until its round budget — a controllable long-runner. The unused inputs
/// `y` and `z` widen the input space to 101³ points, so a fresh example
/// draw practically never collides with the ones already drawn (a
/// collision would end the loop early).
fn slow_for_nope() -> Problem {
    let grammar = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .production("Start", Symbol::Var("x".to_string()), &[])
        .production("Start", Symbol::Num(1), &[])
        .production("Start", Symbol::Plus, &["Start", "Start"])
        .build()
        .unwrap();
    let inputs = ["x", "y", "z"].map(String::from).to_vec();
    let spec = Spec::output_equals(var("x") + LinearExpr::constant(2), inputs);
    Problem::new("xplus2", grammar, spec)
}

/// Trips the token after `delay` on a helper thread.
fn cancel_after(cancel: &Cancel, delay: Duration) -> std::thread::JoinHandle<()> {
    let remote = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        remote.cancel();
    })
}

#[test]
fn nay_observes_a_mid_run_cancel() {
    let cancel = Cancel::new();
    let trip = cancel_after(&cancel, Duration::from_millis(2));
    let started = Instant::now();
    let outcome = solve_nay(&slow_for_nay(), &cancel, &Nay::new());
    let elapsed = started.elapsed();
    trip.join().unwrap();
    assert_eq!(outcome.verdict, SolveVerdict::Cancelled);
    // "promptly" means within one loop iteration, not a full run; one inner
    // CEGIS round on this problem is far below this generous ceiling.
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}

#[test]
fn nope_observes_a_mid_run_cancel() {
    let cancel = Cancel::new();
    // 10k example-growing rounds would take far longer than the whole test
    // suite; only a prompt cancellation can end this run.
    let engine = NopeEngine::new().with_max_rounds(10_000);
    let trip = cancel_after(&cancel, Duration::from_millis(2));
    let started = Instant::now();
    let outcome = solve_nope(&slow_for_nope(), &cancel, &engine);
    let elapsed = started.elapsed();
    trip.join().unwrap();
    assert_eq!(outcome.verdict, SolveVerdict::Cancelled);
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}
