//! Pins the precision of the presolve's abstract lane: the interval ×
//! congruence fixpoint refutes these problems only because it widens after
//! 8 rounds. With nayHorn's delay of 3 their bounds are widened away before
//! they settle, and the presolve abstains on every one of them.

use analyze::{PresolveReason, PresolveVerdict, Presolver};
use sygus::Problem;

fn assert_refuted(problem: &Problem) {
    let presolver = Presolver::new();
    let outcome = presolver.presolve(problem);
    assert_eq!(
        outcome.verdict,
        PresolveVerdict::Unrealizable,
        "{}: {}",
        problem.name(),
        outcome.reason
    );
    assert!(
        matches!(outcome.reason, PresolveReason::AbstractRefutation { .. }),
        "{}: {}",
        problem.name(),
        outcome.reason
    );
    assert!(presolver.recheck(problem, &outcome), "{}", problem.name());
}

#[test]
fn the_presolve_settles_deep_plus() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/deep_plus.sl");
    let text = std::fs::read_to_string(path).expect("corpus/deep_plus.sl");
    let problem = sygus::parser::parse_problem(&text, "deep_plus").expect("parses");
    assert_refuted(&problem);
}

#[test]
fn the_presolve_settles_the_plus_plane_rows() {
    let wanted = ["plus_plane2", "plus_plane3", "plus_plane5", "plus_plane6"];
    let rows: Vec<_> = benchmarks::all()
        .into_iter()
        .filter(|b| wanted.contains(&b.name.as_str()))
        .collect();
    assert_eq!(rows.len(), wanted.len());
    for row in &rows {
        assert_refuted(&row.problem);
    }
}
