//! The `reproduce analyze` front-end: run the static analyzer (crate
//! `analyze`) over on-disk SyGuS-IF files and emit diagnostics plus a
//! runner-schema JSON report.
//!
//! Per file the report contains one `analyze` entry whose verdict is the
//! presolve verdict (`unrealizable` / `realizable` / `unknown`), or
//! `ill-formed` when the well-formedness checker found errors; the
//! `iterations` field carries the diagnostic count so a corpus-wide
//! "analyzer-clean" gate is a single glance at the JSON.

use crate::problem_name;
use analyze::{AnalysisReport, PresolveVerdict, Severity};
use runner::{measure, Entry, JobStatus, Report};
use std::path::PathBuf;

/// One analyzed file: the analyzer's full report plus presentation data.
#[derive(Clone, Debug)]
pub struct AnalyzeRow {
    /// Benchmark (file stem).
    pub name: String,
    /// The path, for `file:line:col` diagnostic prefixes.
    pub path: PathBuf,
    /// The analyzer's report.
    pub report: AnalysisReport,
    /// Wall-clock milliseconds of the analysis.
    pub millis: f64,
}

/// Runs the analyzer over the files and returns the rows plus the
/// runner-schema JSON [`Report`] (suite `analyze`).
///
/// # Errors
/// Returns the first file that cannot be read. Parse and semantic errors
/// are *not* run errors — they come back as diagnostics.
pub fn run_analyze(files: &[PathBuf]) -> Result<(Vec<AnalyzeRow>, Report), String> {
    let mut rows: Vec<AnalyzeRow> = Vec::new();
    let mut entries: Vec<Entry> = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let name = problem_name(path);
        let (report, elapsed) = measure(|| analyze::analyze_source(&text, &name));
        let millis = elapsed.as_secs_f64() * 1000.0;
        let verdict = if report.error_count() > 0 {
            "ill-formed".to_string()
        } else {
            report
                .presolve
                .as_ref()
                .map(|p| p.verdict.name().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        entries.push(Entry {
            benchmark: name.clone(),
            tool: "analyze".into(),
            status: JobStatus::Ok,
            verdict,
            proved: report
                .presolve
                .as_ref()
                .is_some_and(|p| p.verdict == PresolveVerdict::Unrealizable),
            iterations: report.diagnostics.len() as u64,
            millis,
            family: String::new(),
        });
        rows.push(AnalyzeRow {
            name,
            path: path.clone(),
            report,
            millis,
        });
    }
    Ok((rows, Report::new("analyze", entries)))
}

/// Renders the human-readable analyze output: every diagnostic as
/// `file:line:col: severity[code]: message`, then one summary line per
/// file and a sweep total.
pub fn render_analyze(rows: &[AnalyzeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for row in rows {
        for d in &row.report.diagnostics {
            let _ = writeln!(out, "{}:{d}", row.path.display());
        }
    }
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>6} {:>9} {:>7} {:>12} {:>9}  presolve",
        "benchmark", "errors", "warns", "NTs", "prods", "useless", "language"
    );
    for row in rows {
        let (nts, prods, useless, language) = match &row.report.grammar {
            Some(g) => (
                g.num_nonterminals.to_string(),
                g.num_productions.to_string(),
                g.useless_productions.len().to_string(),
                match &g.finite {
                    _ if g.empty_language => "empty".to_string(),
                    Some(f) if f.complete => format!("finite({})", f.terms.len()),
                    Some(_) => "finite(big)".to_string(),
                    None => "infinite".to_string(),
                },
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        let presolve = match &row.report.presolve {
            Some(p) => format!("{} ({})", p.verdict, p.reason),
            None => "- (did not parse)".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>6} {:>9} {:>7} {:>12} {:>9}  {}",
            row.name,
            row.report.error_count(),
            row.report.warning_count(),
            nts,
            prods,
            useless,
            language,
            presolve
        );
    }
    let errors: usize = rows.iter().map(|r| r.report.error_count()).sum();
    let warnings: usize = rows.iter().map(|r| r.report.warning_count()).sum();
    let settled = rows
        .iter()
        .filter(|r| {
            r.report
                .presolve
                .as_ref()
                .is_some_and(|p| p.is_definitive())
        })
        .count();
    let _ = writeln!(
        out,
        "{} file(s): {errors} error(s), {warnings} warning(s); presolve settled {settled} statically",
        rows.len()
    );
    out
}

/// `true` when any file produced an error-severity diagnostic — the exit
/// gate of `reproduce analyze`.
pub fn has_analyze_errors(rows: &[AnalyzeRow]) -> bool {
    rows.iter().any(|r| {
        r.report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn write_temp(dir: &Path, name: &str, text: &str) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write temp file");
        path
    }

    #[test]
    fn analyze_reports_clean_and_broken_files() {
        let dir = std::env::temp_dir().join("bench-analysis-test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let clean = write_temp(
            &dir,
            "clean.sl",
            "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (x 0 (+ Start Start)))))\n(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)\n",
        );
        let broken = write_temp(
            &dir,
            "broken.sl",
            "(set-logic LIA)\n(synth-fun f ((x Int)) Int ((Start Int (y))))\n(constraint (= (f x) x))\n(check-synth)\n",
        );
        let (rows, report) = run_analyze(&[clean, broken]).expect("runs");
        assert_eq!(rows.len(), 2);
        assert_eq!(report.suite, "analyze");
        assert!(
            rows[0].report.is_clean(),
            "{:?}",
            rows[0].report.diagnostics
        );
        assert!(rows[1].report.error_count() > 0);
        assert!(has_analyze_errors(&rows));
        let rendered = render_analyze(&rows);
        assert!(rendered.contains("broken.sl:"));
        assert!(rendered.contains("error(s)"));
        let broken_entry = report
            .entries
            .iter()
            .find(|e| e.benchmark == "broken")
            .expect("entry for broken.sl");
        assert_eq!(broken_entry.verdict, "ill-formed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
