//! Cancellation latency of the naySL check: a token tripped anywhere in a
//! check, or in one of its `⟦<⟧♯` comparisons, run inside a
//! `logic::interruptible` scope polling it is observed within one GFA step
//! or ILP query, so the run returns a non-definitive answer within a
//! quarter of its untripped run time.
//!
//! Three cases cover the long-running step kinds. A `⟦<⟧♯` over
//! semilinear sets whose every linear set has generators spends its time
//! in ILP queries. A `⟦<⟧♯` over thousands of points a side issues no
//! query at all, but compares millions of point pairs (`mpg_ite2`'s
//! comparisons do). `plus_search_7` spends its time in SolveInt: Newton
//! iterations over the RemIf system, tens of milliseconds even in release
//! builds.
//!
//! A whole CEGIS run under a deadline is covered too: on `plus_search_5`
//! the GFA check's pruning of one large semi-linear set runs for tens of
//! seconds, so the deadline must be observed inside it.

use bench::{select, FAMILIES};
use benchmarks::Benchmark;
use nay::{check_unrealizable, clia, CegisOutcome, CheckOutcome, Mode, Nay, Verdict};
use nope::{NopeSolver, NopeVerdict};
use runner::{Cancel, DeadlineTimer};
use semilinear::{IntVec, LinearSet, SemiLinearSet};
use std::time::{Duration, Instant};
use sygus::rng::splitmix64;

/// Trip offsets per case.
const TRIPS: u64 = 5;

/// Points a side in the point-only `⟦<⟧♯` case.
const POINTS: i64 = 1000;

fn row(name: &str) -> Benchmark {
    FAMILIES
        .iter()
        .flat_map(|&family| select(family, true))
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("`{name}` is a quick row"))
}

/// The row's check in `mode`, inside a stop-hook scope polling `cancel`.
fn scoped_check(bench: &Benchmark, mode: &Mode, cancel: &Cancel) -> CheckOutcome {
    let token = cancel.clone();
    logic::interruptible(
        move || token.is_cancelled(),
        || check_unrealizable(&bench.problem, &bench.witness_examples, mode),
    )
}

/// Runs `work` inside a stop-hook scope polling a token tripped `offset`
/// into it; returns whether its answer was definitive and the exit
/// latency, or `None` when it finished before the trip.
fn tripped(work: &dyn Fn() -> bool, offset: Duration) -> Option<(bool, Duration)> {
    let cancel = Cancel::new();
    let started = Instant::now();
    let tripper = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(offset.saturating_sub(started.elapsed()));
            let tripped = Instant::now();
            cancel.cancel();
            tripped
        })
    };
    let token = cancel.clone();
    let definitive = logic::interruptible(move || token.is_cancelled(), work);
    let returned = Instant::now();
    let tripped = tripper.join().expect("tripper thread");
    (tripped <= returned).then(|| (definitive, returned - tripped))
}

/// Trips `work` at seeded offsets and asserts that each tripped run is
/// non-definitive and exits within a quarter of the untripped run time.
/// `work` returns whether its answer is definitive.
fn assert_prompt_exits(name: &str, seed: u64, work: &dyn Fn() -> bool) {
    let run = || {
        let started = Instant::now();
        assert!(work(), "{name}: an untripped run is definitive");
        started.elapsed()
    };
    // The fastest of three untripped runs: a tighter bound, and trips
    // that land before even a fast run ends.
    let untripped = run().min(run()).min(run());
    let bound = untripped / 4;
    let mut state = seed;
    for k in 0..TRIPS {
        // Offset k falls in the k-th fifth of [5%, 75%] of the run.
        let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let fraction = 0.05 + 0.7 * (k as f64 + unit) / TRIPS as f64;
        let mut offset = untripped.mul_f64(fraction);
        // The host's speed drifts: a run faster than the untripped ones
        // may finish before a late trip. Such a run was never tripped, so
        // trip it again, earlier.
        let (definitive, latency) = loop {
            match tripped(work, offset) {
                Some(tripped) => break tripped,
                None if offset > untripped / 20 => offset /= 2,
                None => panic!("{name}: every run finished before its trip"),
            }
        };
        assert!(
            !definitive,
            "{name}: a run tripped at {offset:?} must not be definitive"
        );
        assert!(
            latency <= bound,
            "{name}: exit took {latency:?} after a trip at {offset:?}; bound {bound:?} \
             (untripped run {untripped:?})"
        );
    }
}

/// `⟨(i, 2i, 3i, 4i), {(1, 1, 1, 1)}⟩` for `i < n`, shifted by `shift`: each
/// linear set is a ray along the diagonal, so a pair's two rays compare
/// alike on every component far out, and most vectors `b` are infeasible
/// for every pair — each an ILP query proving it.
fn rays(n: i64, shift: i64) -> SemiLinearSet {
    SemiLinearSet::from_linear_sets((0..n).map(|i| {
        let base: IntVec = (1..=4).map(|k| k * i + shift).collect();
        LinearSet::new(base, vec![IntVec::splat(1, 4)])
    }))
}

/// `n` distinct points `(i, 2i, 3i, 4i)` shifted by `shift`, `i < n`.
fn points(n: i64, shift: i64) -> SemiLinearSet {
    SemiLinearSet::from_linear_sets(
        (0..n).map(|i| LinearSet::singleton((1..=4).map(|k| k * i + shift).collect())),
    )
}

/// One test, so the cases never time each other's runs.
#[test]
fn tripped_checks_exit_within_a_quarter_of_their_run_time() {
    let (left, right) = (rays(8, 0), rays(8, 3));
    assert_prompt_exits("rays < rays", 0x5EED_0001, &|| {
        clia::abstract_less_than(&left, &right, 4).is_some()
    });
    let (left, right) = (points(POINTS, 0), points(POINTS, 3));
    assert_prompt_exits("points < points", 0x5EED_0003, &|| {
        clia::abstract_less_than(&left, &right, 4).is_some()
    });
    let bench = row("plus_search_7");
    assert_prompt_exits(&bench.name, 0x5EED_0002, &|| {
        let check = check_unrealizable(&bench.problem, &bench.witness_examples, &Mode::default());
        check.verdict != Verdict::Unknown
    });
}

#[test]
fn a_pre_tripped_check_is_unknown_at_once() {
    let bench = row("array_sum_3_5");
    let cancel = Cancel::new();
    cancel.cancel();
    for mode in [Mode::default(), Mode::horn()] {
        let outcome = scoped_check(&bench, &mode, &cancel);
        assert_eq!(outcome.verdict, Verdict::Unknown, "{mode:?}");
        assert!(outcome.elapsed < Duration::from_secs(5), "{mode:?}");
    }
    let (verdict, stats) =
        NopeSolver::new().check_cancellable(&bench.problem, &bench.witness_examples, &cancel);
    assert_eq!(verdict, NopeVerdict::Cancelled);
    assert!(stats.elapsed < Duration::from_secs(5));
}

#[test]
fn a_deadline_stops_cegis_on_plus_search_5() {
    let bench = benchmarks::all()
        .into_iter()
        .find(|b| b.name == "plus_search_5")
        .expect("plus_search_5 is a benchmark");
    let timer = DeadlineTimer::new();
    let cancel = Cancel::new();
    let _deadline = timer.register(&cancel, Duration::from_secs(1));
    let started = Instant::now();
    let (outcome, _) = Nay::new().run_cancellable(&bench.problem, &cancel);
    let elapsed = started.elapsed();
    assert_eq!(outcome, CegisOutcome::Cancelled);
    assert!(
        elapsed < Duration::from_secs(2),
        "a 1 s deadline returned after {elapsed:?}"
    );
}
