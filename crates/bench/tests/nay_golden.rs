//! Golden naySL outcomes: `check_unrealizable`'s verdict, abstraction size
//! and solver iterations, and the start symbol's abstraction as
//! `lia::analyze`/`clia::analyze` print it, one line per check. The GFA
//! solve is deterministic (semi-linear sets are kept in one canonical
//! order), so any change to how the equations are built or solved shows
//! up here as a diff.
//!
//! The file records
//! * every quick table row, on its `witness_examples`, in the default
//!   (stratified) mode;
//! * the rows of Fig. 4 (`reproduce fig4` in quick mode) in both the
//!   stratified and the unstratified mode.
//!
//! An abstraction longer than [`MAX_PRINTED`] characters is recorded as its
//! length and 64-bit FNV-1a hash.
//!
//! Regenerate after an intentional change with
//! `cargo test --release -p bench --test nay_golden -- --ignored`.

use benchmarks::Family;
use nay::{check_unrealizable, clia, lia, Mode};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use sygus::{ExampleSet, Problem, Sort};

const GOLDEN: &str = "tests/nay.golden";

/// Abstractions up to this many characters are printed in full.
const MAX_PRINTED: usize = 120;

/// Threads the checks are spread over.
const THREADS: usize = 2;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The start symbol's abstraction on `examples`, printed or hashed.
fn start_abstraction(problem: &Problem, examples: &ExampleSet, stratified: bool) -> String {
    let grammar = match sygus::rewrite::to_plus_form(problem.grammar()) {
        Ok(grammar) => grammar,
        Err(e) => return format!("error({e})"),
    };
    let printed = if grammar.is_lia() {
        lia::analyze(&grammar, examples, stratified, true)
            .map(|analysis| analysis.start_value(&grammar).to_string())
    } else {
        clia::analyze(&grammar, examples, stratified, true).map(|analysis| {
            match grammar.sort_of(grammar.start()) {
                Some(Sort::Int) => analysis.int_values[grammar.start()].to_string(),
                Some(Sort::Bool) => analysis.bool_values[grammar.start()].to_string(),
                None => "-".to_string(),
            }
        })
    };
    match printed {
        Ok(text) if text.chars().count() > MAX_PRINTED => {
            format!("len={}:fnv={:016x}", text.chars().count(), fnv1a(&text))
        }
        Ok(text) => text,
        Err(e) => format!("error({e})"),
    }
}

/// One check the file records.
struct Check {
    name: String,
    problem: Problem,
    examples: ExampleSet,
    mode: Mode,
}

fn check_line(check: &Check) -> String {
    let Check {
        name,
        problem,
        examples,
        mode,
    } = check;
    let outcome = check_unrealizable(problem, examples, mode);
    format!(
        "{name} {} {} size={} iterations={} {}\n",
        mode.name(),
        outcome.verdict.name(),
        outcome.abstraction_size,
        outcome.solver_iterations,
        start_abstraction(problem, examples, *mode == Mode::default())
    )
}

fn checks() -> (Vec<Check>, Vec<Check>) {
    let check = |name: &str, problem: &Problem, examples: &ExampleSet, mode: Mode| Check {
        name: name.to_string(),
        problem: problem.clone(),
        examples: examples.clone(),
        mode,
    };
    let mut quick = Vec::new();
    for family in bench::FAMILIES {
        for row in bench::select(family, true) {
            quick.push(check(
                &row.name,
                &row.problem,
                &row.witness_examples,
                Mode::default(),
            ));
        }
    }
    let mut fig4 = Vec::new();
    let modes = [Mode::default(), Mode::semi_linear_unstratified()];
    for n in (2..=10).step_by(2) {
        let problem = benchmarks::scaling_problem(n);
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        for mode in &modes {
            fig4.push(check(
                &format!("scaling_n{n}"),
                &problem,
                &examples,
                mode.clone(),
            ));
        }
    }
    for row in bench::select(Family::LimitedConst, true)
        .into_iter()
        .take(4)
    {
        for mode in &modes {
            fig4.push(check(
                &row.name,
                &row.problem,
                &row.witness_examples,
                mode.clone(),
            ));
        }
    }
    (quick, fig4)
}

/// The lines of `checks`, in order, computed on [`THREADS`] threads that
/// each take the next unclaimed check (the debug build spends seconds on
/// the largest rows).
fn lines(checks: &[Check]) -> String {
    let next = AtomicUsize::new(0);
    let mut lines: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(check) = checks.get(i) else {
                            return done;
                        };
                        done.push((i, check_line(check)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("check thread"))
            .collect()
    });
    lines.sort_unstable_by_key(|(i, _)| *i);
    lines.into_iter().map(|(_, line)| line).collect()
}

fn table() -> String {
    let (quick, fig4) = checks();
    let mut out =
        String::from("# <row> <mode> <verdict> size=<n> iterations=<n> <start abstraction>\n");
    out.push_str("# quick table rows on their witness examples\n");
    out.push_str(&lines(&quick));
    out.push_str("# Fig. 4 rows, stratified and unstratified\n");
    out.push_str(&lines(&fig4));
    out
}

#[test]
fn nay_outcomes_match_their_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("readable golden file");
    let fresh = table();
    if fresh != golden {
        let first = golden
            .lines()
            .zip(fresh.lines())
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| golden.lines().count().min(fresh.lines().count()));
        panic!(
            "naySL outcomes changed; first difference at line {}:\n--- golden\n{}\n--- fresh\n{}",
            first + 1,
            golden.lines().nth(first).unwrap_or("<end of file>"),
            fresh.lines().nth(first).unwrap_or("<end of file>")
        );
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_the_golden_file() {
    std::fs::write(golden_path(), table()).expect("writable golden file");
}
