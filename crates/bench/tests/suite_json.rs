//! Determinism and round-tripping of the suite's JSON report: the
//! canonicalized report (wall-clock fields zeroed) must be byte-identical
//! across worker counts, and parsing the JSON back must reproduce the
//! report exactly.

use benchmarks::{Benchmark, Family};
use runner::{PoolConfig, Report};

fn sample_benches() -> Vec<Benchmark> {
    bench::select(Family::LimitedConst, true)
        .into_iter()
        .take(4)
        .collect()
}

fn run_with(jobs: usize) -> Report {
    let benches = sample_benches();
    let entries = bench::run_benches(
        &benches,
        &PoolConfig {
            jobs,
            timeout: None,
        },
    );
    Report::new("quick", entries)
}

#[test]
fn canonical_report_is_byte_identical_across_worker_counts() {
    let serial = run_with(1);
    let parallel = run_with(8);
    let serial_json = serial.canonicalized().to_json();
    let parallel_json = parallel.canonicalized().to_json();
    assert_eq!(
        serial_json, parallel_json,
        "jobs=1 and jobs=8 disagree after canonicalization"
    );
    // In particular every verdict matches, entry by entry.
    for (a, b) in serial.entries.iter().zip(&parallel.entries) {
        assert_eq!(a.verdict, b.verdict, "{}/{}", a.benchmark, a.tool);
    }
}

#[test]
fn suite_report_round_trips_through_json() {
    let report = run_with(2);
    let parsed = Report::from_json(&report.to_json()).expect("report parses back");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), report.to_json());
}
