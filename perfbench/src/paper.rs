//! `paper-quick`: the paper's quick table suite, serially on one thread.
//!
//! One operation is one table row: `bench::eval_nay` in naySL and nayHorn
//! mode and `bench::eval_nope`. Every verdict is checked against the
//! committed per-row expectations and against the cross-engine
//! implications (nope or nayHorn unrealizable ⇒ naySL unrealizable; nope
//! realizable ⇒ naySL realizable).
//!
//! The traced run replays `nay::check_unrealizable` from outside —
//! `to_plus_form`, then `lia::analyze` or the SolveMutual loop over
//! `clia::solve_bool`/`clia::solve_int`, then concretization and the final
//! `Solver::check` — with a span around each call, and asserts that every
//! row's verdict, abstraction size and iteration count equal the
//! library's.

use crate::lanes::{run_lanes, LaneWork, Outcome};
use crate::probe::{run_sliced, Sliced, SERIAL};
use crate::stats::median;
use crate::trace::{ledger, write_spans, Tracer};
use crate::{ledger_metrics, ledger_notes, repeat_setup, Args, Measured, Run};
use bench::{eval_nay, eval_nope, select, Evaluation, FAMILIES};
use benchmarks::Benchmark;
use gen::GenRng;
use logic::{Formula, LinearExpr, Solver, SolverResult, Var};
use nay::check::{check_unrealizable, Verdict};
use nay::clia::{self, CliaAnalysis};
use nay::{lia, Mode};
use semilinear::{concretize_semilinear, BoolVecSet, SemiLinearSet};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sygus::{ExampleSet, Grammar, NonTerminal, Problem, Sort, SygusError};

/// Per-row verdict expectations, seeded from `BENCH_quick.json`.
const EXPECTED: &str = include_str!("../expected_quick.txt");

/// Set-up repetitions; `setup_s` is their median. A set-up takes about
/// 15 ms, so many repetitions cost little and steady the median.
const SETUPS: usize = 41;

/// The outside box on one row (all three tools). The slowest row takes
/// about 1.5 s on a 2-CPU container.
const ROW_BOX: Duration = Duration::from_secs(60);

/// The suite in the seeded row order, with each row's expected verdicts
/// in tool order (naySL, nayHorn, nope).
struct Suite {
    rows: Vec<(Benchmark, [String; 3])>,
}

fn setup(seed: u64) -> Result<Suite, String> {
    let mut expected: BTreeMap<&str, [String; 3]> = BTreeMap::new();
    for line in EXPECTED.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split_whitespace();
        let name = fields.next().ok_or("empty expectation line")?;
        let mut verdicts = [String::new(), String::new(), String::new()];
        for (slot, tool) in verdicts.iter_mut().zip(["naySL=", "nayHorn=", "nope="]) {
            *slot = fields
                .next()
                .and_then(|f| f.strip_prefix(tool))
                .ok_or_else(|| format!("expectation line `{line}` lacks `{tool}`"))?
                .to_string();
        }
        expected.insert(name, verdicts);
    }
    let mut rows: Vec<(Benchmark, [String; 3])> = Vec::new();
    for bench in FAMILIES.iter().flat_map(|&family| select(family, true)) {
        let verdicts = expected
            .remove(bench.name.as_str())
            .ok_or_else(|| format!("row `{}` has no expectation", bench.name))?;
        rows.push((bench, verdicts));
    }
    if let Some(stale) = expected.keys().next() {
        return Err(format!("expectation for `{stale}` matches no quick row"));
    }
    // Seeded Fisher–Yates: the seed sets the row order.
    let mut rng = GenRng::from_seed(seed);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.index(i + 1));
    }
    Ok(Suite { rows })
}

/// Checks one row's three verdicts; `Err` describes the first violation.
fn check_row(name: &str, expected: &[String; 3], got: [&str; 3]) -> Result<(), String> {
    for ((tool, want), have) in ["naySL", "nayHorn", "nope"].iter().zip(expected).zip(got) {
        if want != have {
            return Err(format!("{name}: {tool} said {have}, expected {want}"));
        }
    }
    let [sl, horn, nope] = got;
    if (nope == "unrealizable" || horn == "unrealizable") && sl != "unrealizable" {
        return Err(format!("{name}: nope/nayHorn unrealizable but naySL {sl}"));
    }
    if nope == "realizable" && sl != "realizable" {
        return Err(format!("{name}: nope realizable but naySL {sl}"));
    }
    Ok(())
}

fn definitive(verdict: &str) -> bool {
    verdict == "unrealizable" || verdict == "realizable"
}

struct Untraced(Arc<Suite>);

impl LaneWork for Untraced {
    type State = ();
    type Output = [Evaluation; 3];
    fn init(&self, _lane: usize) {}
    fn run(&self, _: &mut (), op: usize) -> [Evaluation; 3] {
        let bench = &self.0.rows[op].0;
        [
            eval_nay(bench, &Mode::default()),
            eval_nay(bench, &Mode::horn()),
            eval_nope(bench),
        ]
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let (suite, setup_s) = repeat_setup(SETUPS, |_| Ok(()), || setup(args.seed))?;
    let suite = Arc::new(suite);
    let n = suite.rows.len();
    let mut measured = Measured {
        setup_s,
        ..Measured::default()
    };
    // Passes over the rows in the seeded order until the time is up: the
    // first pass is always whole, the last may be cut short. The host's
    // speed drifts from moment to moment, so each row is reported by its
    // median over its passes: one sample per row, whatever the pass count.
    let stop_at = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass_walls = Vec::new();
    // Whether each outcome's verdicts count towards `decided_frac`: those
    // of whole passes do, so the figure does not depend on where the last
    // pass was cut.
    let mut whole: Vec<bool> = Vec::new();
    let mut phase: Option<Sliced<[Evaluation; 3]>> = None;
    while Instant::now() < stop_at {
        let pass = run_sliced(
            Arc::new(Untraced(Arc::clone(&suite))),
            1,
            0..n,
            phase.is_some().then_some(stop_at),
            ROW_BOX,
            SERIAL,
            drop,
        );
        pass_walls.push(pass.raw_wall_s);
        whole.extend(std::iter::repeat_n(
            pass.outcomes.len() == n,
            pass.outcomes.len(),
        ));
        match &mut phase {
            Some(phase) => phase.append(pass),
            None => phase = Some(pass),
        }
    }
    let phase = phase.ok_or("no time for a single pass")?;
    let probe_note = phase.note();
    let mut row_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (outcome, whole) in phase.outcomes.into_iter().zip(whole) {
        measured.attempted += 1;
        measured.decisions += if whole { 3 } else { 0 };
        match outcome {
            Outcome::Done { op, result, millis } => {
                let (bench, expected) = &suite.rows[op];
                let verdicts = result.map(|e| e.verdict);
                if whole {
                    measured.decided += verdicts.iter().filter(|v| definitive(v)).count() as u64;
                }
                row_ms[op].push(millis);
                if let Err(e) = check_row(&bench.name, expected, verdicts) {
                    measured.failures.push(e);
                    measured.wrong += 1;
                }
            }
            Outcome::Hung { op, millis } => {
                row_ms[op].push(millis);
                measured.failures.push(format!(
                    "{}: no verdict within {ROW_BOX:?}",
                    suite.rows[op].0.name
                ));
            }
        }
    }
    measured.latencies_ms = row_ms.iter().filter_map(|ms| median(ms)).collect();
    // One serial lane: a pass of per-row medians takes their sum.
    measured.wall_s = measured.latencies_ms.iter().sum::<f64>() / 1000.0;
    let mut notes = vec![
        format!(
            "paper-quick: {} pass(es) of {n} rows (the last may be cut short), pass walls {:?} s; \
             figures are per-row medians",
            pass_walls.len(),
            pass_walls
        ),
        probe_note,
    ];
    let mut layers = BTreeMap::new();
    if args.trace {
        let untraced_pass = pass_walls[0];
        traced(
            args,
            &suite,
            untraced_pass,
            &mut measured,
            &mut layers,
            &mut notes,
        )?;
    }
    Ok(Run {
        measured,
        layers,
        notes,
    })
}

/// Counters the replay collects alongside its spans.
#[derive(Default)]
struct Counters {
    newton_iterations: usize,
    solve_mutual_rounds: usize,
    solve_bool_calls: usize,
    solve_bool_rounds: usize,
    solve_int_calls: usize,
    nope_abstract_iterations: usize,
}

/// What the replay of `check_unrealizable` found for one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Check {
    verdict: Verdict,
    abstraction_size: usize,
    solver_iterations: usize,
}

struct Traced {
    suite: Arc<Suite>,
    epoch: Instant,
}

impl LaneWork for Traced {
    type State = (Tracer, Counters);
    type Output = (Check, [&'static str; 3]);
    fn init(&self, _lane: usize) -> Self::State {
        (Tracer::new(self.epoch), Counters::default())
    }
    fn run(&self, (tracer, counters): &mut Self::State, op: usize) -> Self::Output {
        let bench = &self.suite.rows[op].0;
        tracer.set_op(op as u64);
        tracer.span("paper.row", |t| {
            let sl = t.span("nay.sl", |t| {
                replay_check(t, &bench.problem, &bench.witness_examples, counters)
            });
            let horn = t.span("chc.horn", |_| eval_nay(bench, &Mode::horn()));
            let nope = t.span("nope.check", |_| eval_nope(bench));
            counters.nope_abstract_iterations += nope.iterations;
            (sl, [sl.verdict.name(), horn.verdict, nope.verdict])
        })
    }
}

/// `nay::check_unrealizable` in naySL mode (`Mode::default()`), replayed
/// call by call with a span around each layer.
fn replay_check(
    t: &mut Tracer,
    problem: &Problem,
    examples: &ExampleSet,
    counters: &mut Counters,
) -> Check {
    let check = |verdict, abstraction_size, solver_iterations| Check {
        verdict,
        abstraction_size,
        solver_iterations,
    };
    // Every quick row has witness examples, so the library's shortcut for
    // an empty example set is not replayed; the comparison with
    // `check_unrealizable` would flag a row that needed it.
    let Ok(rewritten) = t.span("sygus.rewrite", |_| {
        sygus::rewrite::to_plus_form(problem.grammar())
    }) else {
        return check(Verdict::Unknown, 0, 0);
    };
    let outputs: Vec<Var> = (0..examples.len())
        .map(|j| Var::indexed("o", j + 1))
        .collect();
    enum Start {
        Int(SemiLinearSet),
        Bool(BoolVecSet),
        Empty,
    }
    let (start, size, iterations) = if rewritten.is_lia() {
        match t.span("nay.lia.analyze", |_| {
            lia::analyze(&rewritten, examples, true, true)
        }) {
            Ok(analysis) => {
                counters.newton_iterations += analysis.newton_iterations;
                (
                    Start::Int(analysis.start_value(&rewritten).clone()),
                    analysis.start_size,
                    analysis.newton_iterations,
                )
            }
            Err(_) => return check(Verdict::Unknown, 0, 0),
        }
    } else {
        match t.span("nay.clia.solve_mutual", |t| {
            solve_mutual(t, &rewritten, examples, counters)
        }) {
            Ok(analysis) => {
                counters.solve_mutual_rounds += analysis.outer_iterations;
                let start = rewritten.start();
                let value = match rewritten.sort_of(start) {
                    Some(Sort::Int) => Start::Int(analysis.int_values[start].clone()),
                    Some(Sort::Bool) => Start::Bool(analysis.bool_values[start].clone()),
                    None => Start::Empty,
                };
                (
                    value,
                    analysis.start_size(&rewritten),
                    analysis.outer_iterations,
                )
            }
            Err(_) => return check(Verdict::Unknown, 0, 0),
        }
    };
    let verdict = t.span("nay.final_query", |_| {
        let gamma = match &start {
            Start::Int(set) => concretize_semilinear(set, &outputs),
            Start::Bool(set) => Formula::or(set.iter().map(|b| {
                Formula::and((0..examples.len()).map(|j| {
                    Formula::eq(
                        LinearExpr::var(outputs[j].clone()),
                        LinearExpr::constant(i64::from(b[j])),
                    )
                }))
            })),
            Start::Empty => Formula::False,
        };
        let spec = problem.spec().conjunction_over(examples, &outputs);
        match Solver::default().check(&Formula::and(vec![gamma, spec])) {
            SolverResult::Unsat => Verdict::Unrealizable,
            SolverResult::Sat(_) => Verdict::Realizable,
            SolverResult::Unknown => Verdict::Unknown,
        }
    });
    check(verdict, size, iterations)
}

/// `nay::clia::analyze` (SolveMutual, stratified, pruned), replayed with
/// a span around every `solve_bool` and `solve_int` call.
fn solve_mutual(
    t: &mut Tracer,
    grammar: &Grammar,
    examples: &ExampleSet,
    counters: &mut Counters,
) -> Result<CliaAnalysis, SygusError> {
    let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
        .int_nonterminals()
        .into_iter()
        .map(|nt| (nt, SemiLinearSet::zero()))
        .collect();
    let mut prev_bools: Option<BTreeMap<NonTerminal, BoolVecSet>> = None;
    let mut outer_iterations = 0;
    let mut bool_iterations = 0;
    let max_outer = grammar.num_nonterminals() * (1usize << examples.len()) + 2;
    loop {
        let (bools, rounds) = t.span("nay.clia.solve_bool", |_| {
            clia::solve_bool(grammar, examples, &int_values)
        });
        counters.solve_bool_calls += 1;
        counters.solve_bool_rounds += rounds;
        bool_iterations += rounds;
        if prev_bools.as_ref() == Some(&bools) {
            return Ok(CliaAnalysis {
                int_values,
                bool_values: bools,
                outer_iterations,
                bool_iterations,
            });
        }
        int_values = t.span("nay.clia.solve_int", |_| {
            clia::solve_int(grammar, examples, &bools, true, true)
        })?;
        counters.solve_int_calls += 1;
        prev_bools = Some(bools);
        outer_iterations += 1;
        if outer_iterations >= max_outer {
            return Ok(CliaAnalysis {
                int_values,
                bool_values: prev_bools.unwrap_or_default(),
                outer_iterations,
                bool_iterations,
            });
        }
    }
}

/// The traced pass, the comparison against the library, and the layer
/// metrics.
fn traced(
    args: &Args,
    suite: &Arc<Suite>,
    untraced_pass_s: f64,
    measured: &mut Measured,
    layers: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let n = suite.rows.len();
    let epoch = Instant::now();
    let work = Arc::new(Traced {
        suite: Arc::clone(suite),
        epoch,
    });
    let pass = run_lanes(work, 1, 0..n, None, ROW_BOX, Vec::new());
    let wall = pass.wall.as_secs_f64();
    let mut replayed: BTreeMap<usize, Check> = BTreeMap::new();
    for outcome in pass.outcomes {
        match outcome {
            Outcome::Done { op, result, .. } => {
                let (bench, expected) = &suite.rows[op];
                if let Err(e) = check_row(&bench.name, expected, result.1) {
                    measured.failures.push(format!("traced pass: {e}"));
                    measured.wrong += 1;
                }
                replayed.insert(op, result.0);
            }
            Outcome::Hung { op, .. } => measured.failures.push(format!(
                "traced pass: {}: no verdict within {ROW_BOX:?}",
                suite.rows[op].0.name
            )),
        }
    }
    // The ledger must follow the library's real path: same verdict,
    // abstraction size and iteration count on every row.
    for (op, replay) in &replayed {
        let bench = &suite.rows[*op].0;
        let library = check_unrealizable(&bench.problem, &bench.witness_examples, &Mode::default());
        let library = Check {
            verdict: library.verdict,
            abstraction_size: library.abstraction_size,
            solver_iterations: library.solver_iterations,
        };
        if library != *replay {
            measured.failures.push(format!(
                "{}: replay {replay:?} differs from check_unrealizable {library:?}",
                bench.name
            ));
            measured.wrong += 1;
        }
    }
    let (tracers, counters): (Vec<Tracer>, Vec<Counters>) = pass.states.into_iter().unzip();
    let totals = ledger(&tracers);
    ledger_metrics(layers, &totals, wall);
    notes.extend(ledger_notes(&totals, wall));
    layers.insert(
        "trace.overhead_frac".into(),
        (wall - untraced_pass_s) / untraced_pass_s,
    );
    notes.push(format!(
        "tracing overhead: traced pass {wall:.4} s vs untraced pass {untraced_pass_s:.4} s"
    ));
    let sum = |f: fn(&Counters) -> usize| counters.iter().map(f).sum::<usize>() as f64;
    layers.insert(
        "nay.lia.newton_iterations".into(),
        sum(|c| c.newton_iterations),
    );
    layers.insert(
        "nay.clia.solve_mutual.rounds".into(),
        sum(|c| c.solve_mutual_rounds),
    );
    layers.insert(
        "nay.clia.solve_bool.calls".into(),
        sum(|c| c.solve_bool_calls),
    );
    layers.insert(
        "nay.clia.solve_bool.rounds".into(),
        sum(|c| c.solve_bool_rounds),
    );
    layers.insert(
        "nay.clia.solve_int.calls".into(),
        sum(|c| c.solve_int_calls),
    );
    layers.insert(
        "nope.abstract_iterations".into(),
        sum(|c| c.nope_abstract_iterations),
    );

    // solve_bool's share of the array_sum rows' traced time.
    let (mut bool_ns, mut row_ns) = (0u64, 0u64);
    for tracer in &tracers {
        for span in tracer.spans() {
            if !suite.rows[span.op as usize].0.name.starts_with("array_sum") {
                continue;
            }
            match span.name.as_str() {
                "paper.row" => row_ns += span.end_ns - span.start_ns,
                "nay.clia.solve_bool" => bool_ns += span.end_ns - span.start_ns,
                _ => {}
            }
        }
    }
    let share = bool_ns as f64 / (row_ns.max(1)) as f64;
    layers.insert("nay.clia.solve_bool.array_sum_share".into(), share);
    notes.push(format!(
        "array_sum rows: solve_bool {:.4} s of {:.4} s traced ({:.1}%)",
        bool_ns as f64 * 1e-9,
        row_ns as f64 * 1e-9,
        100.0 * share
    ));
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/paper-quick-seed{}.spans.jsonl",
        args.seed
    ));
    write_spans(&path, &tracers).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
