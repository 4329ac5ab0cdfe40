//! The experiment harness: functions that regenerate every table and figure
//! of the paper's evaluation (§8) on the reproduced benchmark suite.
//!
//! Each `reproduce_*` function returns a plain-text report (the same rows or
//! series the paper presents); the `reproduce` binary prints them and
//! EXPERIMENTS.md records a snapshot together with the paper's numbers.
//!
//! Execution is layered on `crates/runner`: the evaluation functions
//! ([`eval_nay`], [`eval_nope`]) are *pure* — they run a tool and report its
//! verdict and iteration count, nothing else — while all wall-clock timing,
//! parallelism, per-job deadlines, and panic isolation live in the
//! runner's `run_jobs`. The suite runs each of them inside a
//! `logic::interruptible` scope polling its job's token, so a deadline
//! stops a check mid-fixpoint. The suite module assembles
//! the (benchmark, tool) jobs and the schema-versioned JSON
//! [`runner::Report`] that the CI
//! perf-regression gate diffs against the committed `BENCH_quick.json`
//! baseline. The [`run_solve`] front-end drives the same machinery over
//! on-disk SyGuS-IF corpora, racing [`portfolio::Portfolio`] or a single
//! engine per file, and the [`run_fuzz`] front-end streams `crates/gen`'s
//! seeded problem generator straight through the engines with the
//! differential-soundness oracles armed.
//!
//! Absolute times differ from the paper (different machine, different SMT
//! substrate); what is expected to match is the *shape*: which tool solves
//! which benchmark, how running time grows with `|N|` and `|E|`, and the
//! effect of the stratification optimisation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod fuzz;
mod serve;
mod solve;
mod suite;

pub use analysis::{has_analyze_errors, render_analyze, run_analyze, AnalyzeRow};
pub use fuzz::{
    render_fuzz, render_presolve_diff, run_fuzz, run_fuzz_observed, run_gen, run_presolve_diff,
    FuzzConfig, FuzzEngine, FuzzMemStats, FuzzOutcome, FuzzRow, PresolveDiffOutcome,
    MAX_KEPT_VIOLATIONS,
};
pub use serve::{
    corpus_workload, gen_workload, render_load, run_load, Expected, LoadConfig, LoadOutcome,
    PassSummary, WorkItem,
};
pub use solve::{
    check_manifest, collect_sl_files, load_problem, problem_name, render_solve, run_solve, Engine,
    Manifest, SolveRow, SolveTotals, DEFAULT_SOLVE_TIMEOUT,
};
pub use suite::{
    render_family_table, render_summary, run_benches, run_family, run_suite, FAMILIES, TOOLS,
};

use benchmarks::{Benchmark, Family};
use nay::check::{check_unrealizable, Verdict};
use nay::Mode;
use nope::{NopeSolver, NopeVerdict};
use runner::{measure, PoolConfig, Report};
use std::fmt::Write as _;

/// The timing-free outcome of running one tool on one benchmark: what the
/// runner's jobs return, with the wall clock hoisted into the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// The tool's realizability verdict (`unrealizable`, `realizable`,
    /// `unknown`).
    pub verdict: &'static str,
    /// Whether the tool proved unrealizability.
    pub proved: bool,
    /// Solver iterations (equation-solver rounds for nay, abstract-
    /// interpretation passes for nope).
    pub iterations: usize,
}

/// Runs one of the nay modes on a benchmark's witness example set.
/// Pure with respect to timing: measure it with [`runner::measure`] or run
/// it as a pool job. Inside a [`logic::interruptible`] scope a stopped
/// check evaluates to `unknown`.
pub fn eval_nay(bench: &Benchmark, mode: &Mode) -> Evaluation {
    let outcome = check_unrealizable(&bench.problem, &bench.witness_examples, mode);
    Evaluation {
        verdict: outcome.verdict.name(),
        proved: outcome.verdict == Verdict::Unrealizable,
        iterations: outcome.solver_iterations,
    }
}

/// Runs the nope baseline on a benchmark's witness example set (pure, like
/// [`eval_nay`]), stoppable the same way.
pub fn eval_nope(bench: &Benchmark) -> Evaluation {
    let (verdict, stats) = NopeSolver::new().check(&bench.problem, &bench.witness_examples);
    Evaluation {
        verdict: verdict.name(),
        proved: verdict == NopeVerdict::Unrealizable,
        iterations: stats.abstract_iterations,
    }
}

/// The result of running one tool on one benchmark, with its wall-clock
/// time (the serial-measurement convenience wrapper around [`eval_nay`] /
/// [`eval_nope`]).
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Tool name (`naySL`, `nayHorn`, `nope`).
    pub tool: &'static str,
    /// Whether the tool proved unrealizability.
    pub proved: bool,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs one of the nay modes on a benchmark, measured.
pub fn run_nay(bench: &Benchmark, mode: &Mode) -> Measurement {
    let (eval, elapsed) = measure(|| eval_nay(bench, mode));
    Measurement {
        benchmark: bench.name.clone(),
        tool: if *mode == Mode::Horn {
            "nayHorn"
        } else {
            "naySL"
        },
        proved: eval.proved,
        seconds: elapsed.as_secs_f64(),
    }
}

/// Selects the benchmarks of a family that are cheap enough for the `quick`
/// harness mode (small grammars and few examples); the full mode runs all of
/// them.
pub fn select(family: Family, quick: bool) -> Vec<Benchmark> {
    benchmarks::all()
        .into_iter()
        .filter(|b| b.family == family)
        .filter(|b| {
            if !quick {
                return true;
            }
            let masks = 1usize << b.num_examples().min(4);
            let cost = b.num_nonterminals()
                * if b.problem.grammar().has_ite() {
                    masks
                } else {
                    1
                };
            cost <= 32 && b.num_examples() <= 4
        })
        .collect()
}

fn family_table(title: &str, family: Family, quick: bool, config: &PoolConfig) -> String {
    let entries = run_family(family, quick, config);
    render_family_table(title, family, quick, &entries)
}

/// Table 1 (LimitedPlus rows): naySL vs nayHorn vs nope, run on `config`.
pub fn reproduce_table1_plus_with(quick: bool, config: &PoolConfig) -> String {
    family_table("Table 1 — LimitedPlus", Family::LimitedPlus, quick, config)
}

/// Table 1 (LimitedIf rows), run on `config`.
pub fn reproduce_table1_if_with(quick: bool, config: &PoolConfig) -> String {
    family_table("Table 1 — LimitedIf", Family::LimitedIf, quick, config)
}

/// Table 2 (LimitedConst rows), run on `config`.
pub fn reproduce_table2_with(quick: bool, config: &PoolConfig) -> String {
    family_table(
        "Table 2 — LimitedConst",
        Family::LimitedConst,
        quick,
        config,
    )
}

/// Fig. 2: time to compute the semi-linear set of the start symbol as a
/// function of `|N|`, one series per number of examples.
///
/// The scaling figures stay serial on purpose: their whole point is the
/// per-point timing curve, which concurrent load would distort.
pub fn reproduce_fig2(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 2 — naySL semi-linear solving time vs |N|");
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:>12} {:>10}",
        "|N|", "|E|", "seconds", "verdict"
    );
    let max_n = if quick { 8 } else { 16 };
    let max_e = if quick { 3 } else { 4 };
    for num_examples in 1..=max_e {
        for n in (2..=max_n).step_by(2) {
            let problem = benchmarks::scaling_problem(n);
            let examples = sygus::ExampleSet::for_single_var(
                "x",
                (1..=num_examples as i64).collect::<Vec<_>>(),
            );
            let (outcome, elapsed) =
                measure(|| check_unrealizable(&problem, &examples, &Mode::default()));
            let _ = writeln!(
                out,
                "{:<6} {:<6} {:>12.4} {:>10}",
                n + 1,
                num_examples,
                elapsed.as_secs_f64(),
                format!("{:?}", outcome.verdict)
            );
        }
    }
    out
}

/// Fig. 3 and Fig. 5: nayHorn / nope running time as a function of `|E|`,
/// one series per `|N|` (serial, like [`reproduce_fig2`]).
pub fn reproduce_fig3_fig5(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 3 / Fig. 5 — nayHorn and nope time vs |E|");
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:>14} {:>14}",
        "|N|", "|E|", "nayHorn (s)", "nope (s)"
    );
    let max_e = if quick { 5 } else { 9 };
    for n in 1..=3usize {
        for e in 1..=max_e {
            let problem = benchmarks::scaling_problem(n);
            let examples =
                sygus::ExampleSet::for_single_var("x", (1..=e as i64).collect::<Vec<_>>());
            let (_, horn_elapsed) =
                measure(|| check_unrealizable(&problem, &examples, &Mode::horn()));
            let (_, nope_elapsed) = measure(|| NopeSolver::new().check(&problem, &examples));
            let _ = writeln!(
                out,
                "{:<6} {:<6} {:>14.4} {:>14.4}",
                n + 1,
                e,
                horn_elapsed.as_secs_f64(),
                nope_elapsed.as_secs_f64()
            );
        }
    }
    out
}

/// Fig. 4: the effect of the stratification optimisation on naySL's
/// semi-linear solving time (per benchmark, with vs without; serial).
pub fn reproduce_fig4(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 4 — stratification speed-up");
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>8}",
        "benchmark", "stratified (s)", "no opt. (s)", "speedup"
    );
    let mut row = |name: &str, problem: &sygus::Problem, examples: &sygus::ExampleSet| {
        let (_, stratified) = measure(|| check_unrealizable(problem, examples, &Mode::default()));
        let (_, unstratified) =
            measure(|| check_unrealizable(problem, examples, &Mode::semi_linear_unstratified()));
        let stratified = stratified.as_secs_f64();
        let unstratified = unstratified.as_secs_f64();
        let _ = writeln!(
            out,
            "{:<22} {:>14.4} {:>14.4} {:>8.2}",
            name,
            stratified,
            unstratified,
            unstratified / stratified.max(1e-9)
        );
    };
    let max_n = if quick { 10 } else { 20 };
    for n in (2..=max_n).step_by(2) {
        let problem = benchmarks::scaling_problem(n);
        let examples = sygus::ExampleSet::for_single_var("x", [1, 2]);
        row(&format!("scaling_n{n}"), &problem, &examples);
    }
    // also a couple of the table benchmarks
    for bench in select(Family::LimitedConst, true).into_iter().take(4) {
        row(&bench.name, &bench.problem, &bench.witness_examples);
    }
    out
}

/// The §8.1 headline numbers: how many benchmarks each tool proves
/// unrealizable, and how many naySL solves that nope does not.
pub fn reproduce_summary(quick: bool) -> String {
    reproduce_summary_with(quick, &PoolConfig::serial())
}

/// [`reproduce_summary`] with an explicit pool configuration.
pub fn reproduce_summary_with(quick: bool, config: &PoolConfig) -> String {
    let report = run_suite(quick, config);
    render_summary(&report.entries, quick)
}

/// Runs every experiment on `config` and concatenates the reports.
///
/// The table suite runs exactly once on the pool; the three tables and the
/// §8.1 summary are rendered from that single sweep, which is also returned
/// as the JSON-ready [`Report`] (`--json` writes it to disk). The scaling
/// figures are appended as text, measured serially.
pub fn reproduce_all_with(quick: bool, config: &PoolConfig) -> (String, Report) {
    let report = run_suite(quick, config);
    let mut out = String::new();
    for part in [
        render_family_table(
            "Table 1 — LimitedPlus",
            Family::LimitedPlus,
            quick,
            &report.entries,
        ),
        render_family_table(
            "Table 1 — LimitedIf",
            Family::LimitedIf,
            quick,
            &report.entries,
        ),
        render_family_table(
            "Table 2 — LimitedConst",
            Family::LimitedConst,
            quick,
            &report.entries,
        ),
        reproduce_fig2(quick),
        reproduce_fig3_fig5(quick),
        reproduce_fig4(quick),
        render_summary(&report.entries, quick),
    ] {
        out.push_str(&part);
        out.push('\n');
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_selection_is_nonempty_for_every_family() {
        assert!(!select(Family::LimitedPlus, true).is_empty());
        assert!(!select(Family::LimitedIf, true).is_empty());
        assert!(!select(Family::LimitedConst, true).is_empty());
    }

    #[test]
    fn measurements_have_sane_fields() {
        let bench = select(Family::LimitedConst, true)
            .into_iter()
            .next()
            .expect("at least one quick benchmark");
        let m = run_nay(&bench, &Mode::default());
        assert_eq!(m.tool, "naySL");
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn evaluations_are_pure_and_consistent_with_measurements() {
        let bench = select(Family::LimitedConst, true)
            .into_iter()
            .next()
            .expect("at least one quick benchmark");
        let eval = eval_nay(&bench, &Mode::default());
        let m = run_nay(&bench, &Mode::default());
        assert_eq!(eval.proved, m.proved);
        assert_eq!(eval.proved, eval.verdict == "unrealizable");
    }

    #[test]
    fn fig2_report_has_the_expected_shape() {
        let report = reproduce_fig2(true);
        assert!(report.contains("Fig. 2"));
        assert!(report.lines().count() > 5);
    }
}
