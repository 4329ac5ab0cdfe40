//! Golden witness terms: the generator's by-construction witnesses and the
//! term search's witnesses, printed one per line. Both are deterministic
//! (seeded streams, a fixed search order), so any change to how a witness
//! term is built shows up here as a diff.
//!
//! The file records
//! * `gen`'s witness for each realizable instance among the first
//!   [`GEN_COUNT`] instances of the streams of seeds 42 and 7;
//! * [`enumerative::search`]'s witness, node count and `exhausted` flag on
//!   every benchmark's `witness_examples`, and on a one-example set drawn
//!   with [`sygus::rng::random_example`] from [`sygus::rng::EXAMPLE_SEED`].
//!
//! Regenerate after an intentional change with
//! `cargo test --release --test witness_golden -- --ignored`.

use enumerative::{search, SearchResult};
use gen::{GenConfig, ProblemStream};
use std::path::{Path, PathBuf};
use sygus::rng::{random_example, EXAMPLE_SEED};
use sygus::ExampleSet;

const GOLDEN: &str = "tests/witnesses.golden";

/// Instances recorded per generator seed.
const GEN_COUNT: usize = 3000;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn search_line(out: &mut String, name: &str, set: &str, found: &SearchResult) {
    let witness = found
        .witness
        .as_ref()
        .map_or_else(|| "-".to_string(), |t| t.to_string());
    out.push_str(&format!(
        "search {name} {set} nodes={} exhausted={} {witness}\n",
        found.nodes, found.exhausted
    ));
}

fn table() -> String {
    let mut out = String::from("# gen <seed> <name> <witness>\n");
    for seed in [42, 7] {
        for instance in ProblemStream::new(GenConfig::new(seed)).take(GEN_COUNT) {
            if let Some(witness) = &instance.witness {
                out.push_str(&format!("gen {seed} {} {witness}\n", instance.name()));
            }
        }
    }
    out.push_str("# search <benchmark> <example set> nodes=<n> exhausted=<bool> <witness>\n");
    for bench in benchmarks::all() {
        let problem = &bench.problem;
        let found = search(problem.grammar(), &bench.witness_examples, problem.spec());
        search_line(&mut out, &bench.name, "witness", &found);
        let mut rng = EXAMPLE_SEED;
        let one = ExampleSet::from_examples([random_example(problem, &mut rng)]);
        let found = search(problem.grammar(), &one, problem.spec());
        search_line(&mut out, &bench.name, "random", &found);
    }
    out
}

#[test]
fn witnesses_match_their_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("readable golden file");
    let fresh = table();
    if fresh != golden {
        let first = golden
            .lines()
            .zip(fresh.lines())
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| golden.lines().count().min(fresh.lines().count()));
        panic!(
            "witnesses changed; first difference at line {}:\n--- golden\n{}\n--- fresh\n{}",
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
