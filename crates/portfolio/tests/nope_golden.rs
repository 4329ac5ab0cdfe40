//! Golden numbers for the nope engine over the on-disk corpus: one row per
//! `corpus/*.sl` file with [`portfolio::solve_nope`]'s verdict, summed
//! fixpoint iterations, final example count and peak term-search
//! witness-log nodes (the `arena_terms` column).
//! nope is deterministic (its example draws are seeded), so any change to
//! its search, its fixpoint or its example loop shows up here as a diff.
//!
//! Regenerate after an intentional change with
//! `cargo test --release -p portfolio --test nope_golden -- --ignored`.

use portfolio::{solve_nope, Cancel, NopeEngine};
use std::path::{Path, PathBuf};

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

const GOLDEN: &str = "tests/nope_corpus.golden";

/// The table: a header line, then `name verdict iterations examples_used
/// arena_terms` per corpus file in file-name order.
fn table() -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_path("../../corpus"))
        .expect("readable corpus directory")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "sl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus has no .sl files");
    let mut out = String::from("# name verdict iterations examples_used arena_terms\n");
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable .sl file");
        let problem = sygus::parser::parse_problem(&text, &name).expect("corpus instance parses");
        let outcome = solve_nope(&problem, &Cancel::new(), &NopeEngine::new());
        out.push_str(&format!(
            "{name} {} {} {} {}\n",
            outcome.verdict.name(),
            outcome.iterations,
            outcome.examples_used,
            outcome.arena_terms
        ));
    }
    out
}

#[test]
fn nope_matches_its_golden_numbers_on_the_corpus() {
    let golden = std::fs::read_to_string(repo_path(GOLDEN)).expect("readable golden file");
    let fresh = table();
    assert!(
        fresh == golden,
        "nope's corpus numbers changed:\n--- golden\n{golden}--- fresh\n{fresh}"
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_the_golden_file() {
    std::fs::write(repo_path(GOLDEN), table()).expect("writable golden file");
}
