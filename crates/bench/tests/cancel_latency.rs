//! Cancellation latency of the naySL check: a token tripped anywhere in a
//! check run inside a `logic::interruptible` scope polling it is observed
//! within one GFA step, so the check returns a non-definitive verdict
//! within a quarter of its untripped run time.
//!
//! Two quick table rows cover the two long-running step kinds:
//! `array_sum_3_5` spends its time in `⟦<⟧♯` ILP queries inside
//! SolveBool, `if_search_2` in Newton iterations over the RemIf system.

use bench::{select, FAMILIES};
use benchmarks::Benchmark;
use nay::{check_unrealizable, CheckOutcome, Mode, Verdict};
use nope::{NopeSolver, NopeVerdict};
use runner::Cancel;
use std::time::{Duration, Instant};

/// Trip offsets per row.
const TRIPS: u64 = 5;

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

/// splitmix64: the seeded offsets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the row's check with its token tripped `offset` into it; returns
/// the verdict and the exit latency, or `None` when the check finished
/// before the trip.
fn tripped_check(bench: &Benchmark, offset: Duration) -> Option<(Verdict, Duration)> {
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
    let outcome = scoped_check(bench, &Mode::default(), &cancel);
    let returned = Instant::now();
    let tripped = tripper.join().expect("tripper thread");
    (tripped <= returned).then(|| (outcome.verdict, returned - tripped))
}

fn assert_prompt_exits(name: &str, seed: u64) {
    let bench = row(name);
    let check = || {
        let started = Instant::now();
        check_unrealizable(&bench.problem, &bench.witness_examples, &Mode::default());
        started.elapsed()
    };
    // The fastest of three untripped runs: a tighter bound, and trips
    // that land before even a fast run ends.
    let untripped = check().min(check()).min(check());
    let bound = untripped / 4;
    let mut state = seed;
    for k in 0..TRIPS {
        // Offset k falls in the k-th fifth of [5%, 75%] of the check.
        let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let fraction = 0.05 + 0.7 * (k as f64 + unit) / TRIPS as f64;
        let mut offset = untripped.mul_f64(fraction);
        // The host's speed drifts: a run faster than the untripped ones
        // may finish before a late trip. Such a run was never tripped, so
        // trip it again, earlier.
        let (verdict, latency) = loop {
            match tripped_check(&bench, offset) {
                Some(tripped) => break tripped,
                None if offset > untripped / 20 => offset /= 2,
                None => panic!("{name}: every run finished before its trip"),
            }
        };
        assert_eq!(
            verdict,
            Verdict::Unknown,
            "{name}: a check tripped at {offset:?} must not be definitive"
        );
        assert!(
            latency <= bound,
            "{name}: exit took {latency:?} after a trip at {offset:?}; bound {bound:?} \
             (untripped check {untripped:?})"
        );
    }
}

/// One test, so the two rows never time each other's checks.
#[test]
fn tripped_checks_exit_within_a_quarter_of_their_run_time() {
    assert_prompt_exits("array_sum_3_5", 0x5EED_0001);
    assert_prompt_exits("if_search_2", 0x5EED_0002);
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
