//! The `reproduce solve` front-end: run the portfolio (or a single engine)
//! over on-disk SyGuS-IF files and emit runner-schema JSON.
//!
//! A corpus is a directory of `.sl` files plus an optional `MANIFEST`
//! recording the expected verdict per file and engine; [`check_manifest`]
//! turns a solve report plus a manifest into a list of mismatches, which
//! is what the CI `corpus-check` job gates on.

use portfolio::{solve_nay, solve_nope, Cancel, NopeEngine, Portfolio, SolveVerdict};
use runner::{run_jobs, DeadlineTimer, Entry, Job, JobStatus, PoolConfig, Report, WarmPool};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The per-run wall-clock budget `run_solve` applies when the caller does
/// not pass one (solo and race alike): generous enough for any sane corpus
/// instance, finite so a diverging engine becomes a `timed_out` entry
/// instead of a hung run.
pub const DEFAULT_SOLVE_TIMEOUT: Duration = Duration::from_secs(600);

/// Which engine `reproduce solve` drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The exact CHC/GFA-based CEGIS engine.
    Nay,
    /// The approximate program-reachability engine.
    Nope,
    /// Both engines raced with cooperative cancellation.
    Race,
}

impl Engine {
    /// The CLI / MANIFEST name of the engine.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Nay => "nay",
            Engine::Nope => "nope",
            Engine::Race => "race",
        }
    }

    /// Inverse of [`Engine::name`].
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "nay" => Some(Engine::Nay),
            "nope" => Some(Engine::Nope),
            "race" => Some(Engine::Race),
            _ => None,
        }
    }
}

/// Collects the `.sl` files of a corpus path: a single file, or every
/// `*.sl` in a directory (sorted by name, for deterministic reports).
///
/// # Errors
/// Returns a message when the path does not exist, is not readable, or a
/// directory contains no `.sl` file.
pub fn collect_sl_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(format!(
            "`{}` is neither a file nor a directory",
            path.display()
        ));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("`{}` contains no .sl files", path.display()));
    }
    Ok(files)
}

/// The file stem used as the benchmark name in reports and the MANIFEST.
pub fn problem_name(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Parses one `.sl` file into a [`sygus::Problem`] named after the file.
///
/// # Errors
/// Returns a message naming the file on I/O or parse errors; parse errors
/// come out `file:line:col: message` so editors and humans can jump to the
/// offending token.
pub fn load_problem(path: &Path) -> Result<sygus::Problem, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    sygus::parser::parse_problem(&text, &problem_name(path)).map_err(|e| match e {
        sygus::SygusError::ParseError(p) => {
            format!("{}:{}:{}: {}", path.display(), p.line, p.col, p.msg)
        }
        other => format!("parse error in `{}`: {other}", path.display()),
    })
}

/// One row of the human-readable solve table.
#[derive(Clone, Debug)]
pub struct SolveRow {
    /// Benchmark (file stem).
    pub name: String,
    /// The verdict of the driven engine (the race verdict for `race`).
    pub verdict: String,
    /// Which engine won the race, when racing.
    pub winner: Option<&'static str>,
    /// Wall-clock milliseconds of the run (race wall clock for `race`).
    pub millis: f64,
    /// The losing engine's cancellation latency, when racing.
    pub loser_cancel_millis: Option<f64>,
    /// Peak term-search witness-log nodes of the run (the larger side for
    /// `race`).
    pub arena_terms: usize,
    /// The solve's span tree, when tracing was requested (race engine
    /// only: solo engines have no phase structure worth a waterfall).
    pub trace: Option<obs::Trace>,
}

/// Run-level totals of a solve sweep, printed in the summary line.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveTotals {
    /// Wall-clock milliseconds of the whole sweep (parsing included).
    pub wall_millis: f64,
    /// Largest per-run term-search witness-log node count across the
    /// sweep.
    pub peak_arena_terms: usize,
}

/// Runs the chosen engine over the files and returns the human-readable
/// rows plus the runner-schema JSON [`Report`] (suite `solve-<engine>`).
///
/// Per file the report contains one entry with the engine's name as the
/// tool; a race additionally contributes `race/nay` and `race/nope`
/// entries carrying each engine's own timing, verdict (`cancelled` for the
/// cancelled loser), and iteration count, so the loser's cancellation
/// latency is `race/<loser>.millis − race/<winner>.millis`.
///
/// Engines run under a wall-clock budget of `timeout`, defaulting to
/// [`DEFAULT_SOLVE_TIMEOUT`] for solo and race alike. The budget trips the
/// engines' cancellation token, so a diverging engine winds down and lands
/// as a `timed_out` entry instead of hanging the run. Races share one warm
/// two-worker pool for the whole sweep; solo runs go through
/// [`run_jobs`] one file at a time.
///
/// When racing with the presolve stage enabled, each race additionally
/// contributes a `race/presolve` entry carrying the static analyzer's own
/// verdict (`unknown` when it abstained) and milliseconds; the stage is
/// verdict-preserving (see [`Portfolio::with_presolve`]) so the `race`
/// entries the MANIFEST gates on are unaffected.
///
/// With `trace` set, each race row additionally carries an [`obs::Trace`]
/// span tree (parse, presolve, per-engine race spans, loser cancellation)
/// that `reproduce solve --trace` renders as a waterfall.
///
/// # Errors
/// Returns the first file that fails to load or parse.
pub fn run_solve(
    files: &[PathBuf],
    engine: Engine,
    timeout: Option<Duration>,
    presolve: bool,
    trace: bool,
) -> Result<(Vec<SolveRow>, Report, SolveTotals), String> {
    let sweep_started = Instant::now();
    let timeout = timeout.unwrap_or(DEFAULT_SOLVE_TIMEOUT);
    let mut entries: Vec<Entry> = Vec::new();
    let mut rows: Vec<SolveRow> = Vec::new();
    match engine {
        Engine::Race => {
            // One warm pool and one deadline timer serve every race.
            let pool = WarmPool::new(2);
            let timer = DeadlineTimer::new();
            let portfolio = Portfolio::new().with_presolve(presolve);
            for path in files {
                let parse_started = Instant::now();
                let problem = load_problem(path)?;
                let parse_millis = parse_started.elapsed().as_secs_f64() * 1000.0;
                let name = problem_name(path);
                let cancel = Cancel::new();
                let report = {
                    let _deadline = timer.register(&cancel, timeout);
                    portfolio.race_on_pool(&problem, &pool, &cancel)
                };
                // The race entry surfaces the *worst* engine status: a
                // panicking engine is a crash and an engine stopped by the
                // deadline is a timeout — the corpus gate must fail on
                // either (a loser cancelled by the winner exits Ok with
                // verdict `cancelled`, so healthy races are unaffected).
                let race_status = report.nay.status.worst(report.nope.status);
                entries.push(Entry {
                    benchmark: name.clone(),
                    tool: "race".into(),
                    status: race_status,
                    verdict: report.verdict.name().into(),
                    proved: report.verdict == SolveVerdict::Unrealizable,
                    iterations: report.nay.iterations + report.nope.iterations,
                    millis: report.wall_millis,
                    family: String::new(),
                });
                for side in [&report.nay, &report.nope] {
                    entries.push(Entry {
                        benchmark: name.clone(),
                        tool: format!("race/{}", side.engine),
                        status: side.status,
                        verdict: side.verdict.name().into(),
                        proved: side.verdict == SolveVerdict::Unrealizable,
                        iterations: side.iterations,
                        millis: side.millis,
                        family: String::new(),
                    });
                }
                if let Some(stage) = &report.presolve {
                    entries.push(Entry {
                        benchmark: name.clone(),
                        tool: "race/presolve".into(),
                        status: JobStatus::Ok,
                        verdict: stage.verdict.name().into(),
                        proved: stage.verdict == SolveVerdict::Unrealizable,
                        iterations: 0,
                        millis: stage.millis,
                        family: String::new(),
                    });
                }
                rows.push(SolveRow {
                    trace: trace
                        .then(|| report.trace_with(obs::fresh_trace_id(), parse_millis, None)),
                    name,
                    verdict: report.verdict.name().into(),
                    winner: report.winner,
                    millis: report.wall_millis,
                    loser_cancel_millis: report.loser_cancel_millis,
                    arena_terms: report.nay.arena_terms.max(report.nope.arena_terms),
                });
            }
        }
        Engine::Nay | Engine::Nope => {
            let mut jobs = Vec::new();
            for path in files {
                let problem = load_problem(path)?;
                jobs.push(Job::cancellable(
                    problem_name(path),
                    move |cancel| match engine {
                        Engine::Nay => solve_nay(&problem, cancel, &nay::Nay::default()),
                        _ => solve_nope(&problem, cancel, &NopeEngine::default()),
                    },
                ));
            }
            let config = PoolConfig::serial().with_timeout(timeout);
            for result in run_jobs(jobs, &config) {
                let millis = result.elapsed.as_secs_f64() * 1000.0;
                let (verdict, iterations, arena_terms) = match &result.output {
                    Some(outcome) => (
                        outcome.verdict.name().to_string(),
                        outcome.iterations,
                        outcome.arena_terms,
                    ),
                    None => ("-".to_string(), 0, 0),
                };
                entries.push(Entry {
                    benchmark: result.id.clone(),
                    tool: engine.name().into(),
                    status: result.status,
                    verdict: verdict.clone(),
                    proved: verdict == "unrealizable",
                    iterations,
                    millis,
                    family: String::new(),
                });
                rows.push(SolveRow {
                    name: result.id,
                    verdict,
                    winner: None,
                    millis,
                    loser_cancel_millis: None,
                    arena_terms,
                    trace: None,
                });
            }
        }
    }
    let report = Report::new(format!("solve-{}", engine.name()), entries);
    let totals = SolveTotals {
        wall_millis: sweep_started.elapsed().as_secs_f64() * 1000.0,
        peak_arena_terms: rows.iter().map(|r| r.arena_terms).max().unwrap_or(0),
    };
    Ok((rows, report, totals))
}

/// Renders the human-readable solve table, ending with a summary line
/// carrying the sweep's total wall clock and peak term-search
/// witness-log nodes.
pub fn render_solve(rows: &[SolveRow], engine: Engine, totals: &SolveTotals) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# solve — engine: {}", engine.name());
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>8} {:>12} {:>14} {:>12}",
        "benchmark", "verdict", "winner", "millis", "loser-abort-ms", "arena-terms"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>8} {:>12.1} {:>14} {:>12}",
            row.name,
            row.verdict,
            row.winner.unwrap_or("-"),
            row.millis,
            row.loser_cancel_millis
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            row.arena_terms,
        );
    }
    let _ = writeln!(
        out,
        "{} benchmark(s); total wall-clock {:.1} ms; peak term-arena {} terms",
        rows.len(),
        totals.wall_millis,
        totals.peak_arena_terms
    );
    for row in rows {
        if let Some(trace) = &row.trace {
            let _ = writeln!(out, "\n## {}", row.name);
            out.push_str(&trace.render_waterfall());
        }
    }
    out
}

/// A parsed `corpus/MANIFEST`: per benchmark, the expected verdict of each
/// engine. The format is line-oriented:
///
/// ```text
/// # comment
/// <file.sl> nay=<verdict> nope=<verdict> race=<verdict>
/// ```
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    expected: BTreeMap<String, BTreeMap<String, String>>,
}

impl Manifest {
    /// Parses the MANIFEST text.
    ///
    /// # Errors
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut expected = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let file = parts
                .next()
                .ok_or_else(|| format!("MANIFEST line {}: missing file name", lineno + 1))?;
            let name = file.strip_suffix(".sl").unwrap_or(file).to_string();
            let mut verdicts = BTreeMap::new();
            for part in parts {
                let Some((engine, verdict)) = part.split_once('=') else {
                    return Err(format!(
                        "MANIFEST line {}: `{part}` is not engine=verdict",
                        lineno + 1
                    ));
                };
                if Engine::parse(engine).is_none() {
                    return Err(format!(
                        "MANIFEST line {}: unknown engine `{engine}`",
                        lineno + 1
                    ));
                }
                verdicts.insert(engine.to_string(), verdict.to_string());
            }
            expected.insert(name, verdicts);
        }
        Ok(Manifest { expected })
    }

    /// Loads `MANIFEST` from a corpus directory, if present.
    ///
    /// # Errors
    /// Propagates read and parse errors (a present-but-broken manifest must
    /// fail the run, not silently skip the gate).
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = dir.join("MANIFEST");
        if !path.is_file() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        Manifest::parse(&text).map(Some)
    }

    /// The expected verdict for a benchmark under an engine, if recorded.
    pub fn expected(&self, benchmark: &str, engine: Engine) -> Option<&str> {
        self.expected
            .get(benchmark)
            .and_then(|v| v.get(engine.name()))
            .map(String::as_str)
    }

    /// The benchmarks the manifest covers.
    pub fn benchmarks(&self) -> impl Iterator<Item = &str> {
        self.expected.keys().map(String::as_str)
    }
}

/// Diffs a solve report against the manifest: verdict mismatches, files
/// missing from the manifest, manifest rows without a corpus file (only
/// when `require_complete` — i.e. the whole corpus directory ran, not a
/// single file), and jobs that did not complete. An empty result means the
/// corpus gate passes.
pub fn check_manifest(
    report: &Report,
    engine: Engine,
    manifest: &Manifest,
    require_complete: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let tool = engine.name();
    for entry in report.entries.iter().filter(|e| e.tool == tool) {
        if entry.status != JobStatus::Ok {
            problems.push(format!(
                "{}/{tool}: did not complete (status {})",
                entry.benchmark,
                entry.status.as_str()
            ));
            continue;
        }
        match manifest.expected(&entry.benchmark, engine) {
            None => problems.push(format!(
                "{}: not covered by the MANIFEST (add `{}.sl {tool}={}`)",
                entry.benchmark, entry.benchmark, entry.verdict
            )),
            Some(expected) if expected != entry.verdict => problems.push(format!(
                "{}/{tool}: expected verdict `{expected}`, got `{}`",
                entry.benchmark, entry.verdict
            )),
            Some(_) => {}
        }
    }
    for benchmark in manifest.benchmarks() {
        if require_complete
            && manifest.expected(benchmark, engine).is_some()
            && !report
                .entries
                .iter()
                .any(|e| e.tool == tool && e.benchmark == benchmark)
        {
            problems.push(format!(
                "{benchmark}: listed in the MANIFEST but absent from the corpus run"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for engine in [Engine::Nay, Engine::Nope, Engine::Race] {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("cvc4"), None);
    }

    #[test]
    fn manifest_parses_and_answers_lookups() {
        let text = "# corpus expectations\nsection2_g1.sl nay=unrealizable nope=unrealizable race=unrealizable\nxplus2.sl nay=realizable nope=unknown race=realizable\n";
        let manifest = Manifest::parse(text).unwrap();
        assert_eq!(
            manifest.expected("section2_g1", Engine::Nay),
            Some("unrealizable")
        );
        assert_eq!(
            manifest.expected("xplus2", Engine::Race),
            Some("realizable")
        );
        assert_eq!(manifest.expected("missing", Engine::Race), None);
        assert_eq!(manifest.benchmarks().count(), 2);
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(Manifest::parse("a.sl nay:unrealizable").is_err());
        assert!(Manifest::parse("a.sl cvc4=unrealizable").is_err());
        assert!(Manifest::parse("# only comments\n").is_ok());
    }

    #[test]
    fn manifest_mismatches_are_reported() {
        let manifest =
            Manifest::parse("a.sl race=unrealizable\nb.sl race=realizable\nc.sl race=unknown\n")
                .unwrap();
        let report = Report::new(
            "solve-race",
            vec![
                Entry {
                    benchmark: "a".into(),
                    tool: "race".into(),
                    status: JobStatus::Ok,
                    verdict: "unrealizable".into(),
                    proved: true,
                    iterations: 1,
                    millis: 1.0,
                    family: String::new(),
                },
                Entry {
                    benchmark: "b".into(),
                    tool: "race".into(),
                    status: JobStatus::Ok,
                    verdict: "unknown".into(), // mismatch
                    proved: false,
                    iterations: 1,
                    millis: 1.0,
                    family: String::new(),
                },
                Entry {
                    benchmark: "d".into(), // not in manifest
                    tool: "race".into(),
                    status: JobStatus::Ok,
                    verdict: "unknown".into(),
                    proved: false,
                    iterations: 1,
                    millis: 1.0,
                    family: String::new(),
                },
            ],
        );
        let problems = check_manifest(&report, Engine::Race, &manifest, true);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("b/race")));
        assert!(problems.iter().any(|p| p.contains("not covered")));
        assert!(problems
            .iter()
            .any(|p| p.contains("absent from the corpus run")));
        // a partial (single-file) run does not demand corpus completeness
        let partial = check_manifest(&report, Engine::Race, &manifest, false);
        assert_eq!(partial.len(), 2, "{partial:?}");
    }
}
