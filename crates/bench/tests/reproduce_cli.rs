//! The `reproduce` binary's exit statuses: `fuzz --require-presolved`
//! passes only when the presolve settled an instance of every attacked
//! family, and a reader that closes stdout early does not make a command
//! panic.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

fn race_sweep(families: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "fuzz",
        "--engine",
        "race",
        "--count",
        "2",
        "--seed",
        "7",
        "--families",
        families,
        "--require-presolved",
    ];
    args.extend(extra);
    reproduce(&args)
}

#[test]
fn require_presolved_passes_when_every_family_was_settled() {
    let output = race_sweep("const_sum,max_gap", &[]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("race/presolve"), "{stdout}");
}

#[test]
fn require_presolved_fails_on_a_family_the_presolve_never_settled() {
    // Seed 7's first guarded_const instance is one the presolve leaves to
    // the engines.
    let output = race_sweep("const_sum,guarded_const", &[]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("family guarded_const: no instance was settled statically"),
        "{stderr}"
    );
    assert!(!stderr.contains("family const_sum"), "{stderr}");
    assert!(!stderr.contains("ORACLE VIOLATION"), "{stderr}");

    // Without the presolve stage there is nothing to count.
    let output = race_sweep("const_sum", &["--no-presolve"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn a_closed_stdout_does_not_panic() {
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_quick.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("compare")
        .args([&baseline, &baseline])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("reproduce starts");
    // Close the read end before the report is loaded, as `| head -0` would.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("reproduce exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
