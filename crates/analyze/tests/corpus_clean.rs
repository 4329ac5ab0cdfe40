//! The corpus-wide "analyzer-clean" gate: every promoted `.sl` file under
//! `corpus/` must pass the front end with zero diagnostics (not even
//! warnings), parse into a grammar report, and leave the presolve with a
//! rechecked outcome. A corpus file that starts tripping the analyzer means
//! either the file regressed or the analyzer grew a false positive — both
//! are bugs. The same holds for every workload the benchmarks send: the
//! front end rejects every error, so a diagnostic there would turn a
//! benchmark row into a parse failure.

use analyze::{analyze_source, Presolver};
use std::path::PathBuf;
use sygus::parser::{parse_with_diagnostics, problem_to_sygus};

fn corpus_files() -> Vec<PathBuf> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", corpus.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sl"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_corpus_file_is_analyzer_clean() {
    let files = corpus_files();
    assert!(
        files.len() >= 20,
        "expected a populated corpus, found {} .sl files",
        files.len()
    );
    let mut dirty = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("corpus")
            .to_string();
        let report = analyze_source(&text, &name);
        if !report.is_clean() {
            for d in &report.diagnostics {
                dirty.push(format!("{}:{d}", path.display()));
            }
        }
        assert!(
            report.grammar.is_some(),
            "{} produced no grammar report",
            path.display()
        );
        assert!(
            report.presolve.is_some(),
            "{} produced no presolve outcome",
            path.display()
        );
    }
    assert!(
        dirty.is_empty(),
        "corpus files with diagnostics:\n{}",
        dirty.join("\n")
    );
}

#[test]
fn corpus_presolve_outcomes_survive_recheck() {
    let presolver = Presolver::new();
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let problem = sygus::parser::parse_problem(&text, "corpus")
            .unwrap_or_else(|e| panic!("{} fails to parse: {e}", path.display()));
        let outcome = presolver.presolve(&problem);
        if outcome.is_definitive() {
            assert!(
                presolver.recheck(&problem, &outcome),
                "{}: definitive outcome fails recheck: {}",
                path.display(),
                outcome.reason
            );
        }
    }
}

#[test]
fn every_benchmark_workload_elaborates_without_diagnostics() {
    let mut sources: Vec<(String, String)> = benchmarks::all()
        .into_iter()
        .map(|b| (b.name.clone(), problem_to_sygus(&b.problem, "f")))
        .collect();
    assert_eq!(sources.len(), 132, "benchmarks::all() rows");
    for seed in [42, 7] {
        sources.extend(
            gen::ProblemStream::new(gen::GenConfig::new(seed))
                .take(500)
                .map(|instance| (format!("seed {seed} {}", instance.name()), instance.to_sl())),
        );
    }
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        sources.push((path.display().to_string(), text));
    }
    let mut dirty = Vec::new();
    for (name, text) in &sources {
        let (problem, diagnostics) = parse_with_diagnostics(text, name);
        dirty.extend(diagnostics.iter().map(|d| format!("{name}:{d}")));
        if problem.is_none() {
            dirty.push(format!("{name}: no problem"));
        }
    }
    assert!(
        dirty.is_empty(),
        "workload instances with diagnostics:\n{}",
        dirty.join("\n")
    );
}
