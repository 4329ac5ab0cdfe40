//! The parallel benchmark suite: turns (benchmark, tool) pairs into runner
//! [`Job`]s, executes them with [`run_jobs`], and assembles the
//! schema-versioned [`Report`] the CI perf gate consumes.
//!
//! Timing lives entirely in the runner (`runner::measure` around the job
//! body); the evaluation functions in the crate root are pure. Job order —
//! and therefore entry order after the report's canonical sort — does not
//! depend on the worker count, which is what makes `--jobs 1` and
//! `--jobs 8` produce byte-identical canonicalized reports.

use crate::{eval_nay, eval_nope, select, Evaluation};
use benchmarks::{Benchmark, Family};
use nay::Mode;
use runner::{run_jobs, Entry, Job, JobResult, JobStatus, PoolConfig, Report};

/// The three tools of the evaluation, in table-column order.
pub const TOOLS: [&str; 3] = ["naySL", "nayHorn", "nope"];

/// The three benchmark families, in the order the paper's tables use.
pub const FAMILIES: [Family; 3] = [Family::LimitedPlus, Family::LimitedIf, Family::LimitedConst];

/// Runs every tool on every given benchmark through the pool and returns
/// one entry per (benchmark, tool) pair, in input order.
pub fn run_benches(benches: &[Benchmark], config: &PoolConfig) -> Vec<Entry> {
    // One (benchmark, tool) list drives both job construction and entry
    // assembly, so labels cannot drift out of sync with positions.
    let pairs: Vec<(&Benchmark, &str)> = benches
        .iter()
        .flat_map(|b| TOOLS.iter().map(move |&t| (b, t)))
        .collect();
    let jobs: Vec<Job<Evaluation>> = pairs
        .iter()
        .map(|(bench, tool)| {
            let bench = (*bench).clone();
            let tool = *tool;
            // The job's deadline trips its token; the scope turns the trip
            // into the stop hook every loop of the check polls.
            Job::cancellable(format!("{}::{tool}", bench.name), move |cancel| {
                let token = cancel.clone();
                logic::interruptible(
                    move || token.is_cancelled(),
                    || match tool {
                        "naySL" => eval_nay(&bench, &Mode::default()),
                        "nayHorn" => eval_nay(&bench, &Mode::horn()),
                        _ => eval_nope(&bench),
                    },
                )
            })
        })
        .collect();
    let results = run_jobs(jobs, config);
    pairs
        .into_iter()
        .zip(results)
        .map(|((bench, tool), result)| entry_from(bench.name.clone(), tool.to_string(), result))
        .collect()
}

fn entry_from(benchmark: String, tool: String, result: JobResult<Evaluation>) -> Entry {
    let millis = result.elapsed.as_secs_f64() * 1000.0;
    match (result.status, result.output) {
        (JobStatus::Ok, Some(eval)) => Entry {
            benchmark,
            tool,
            status: JobStatus::Ok,
            verdict: eval.verdict.into(),
            proved: eval.proved,
            iterations: eval.iterations as u64,
            millis,
            family: String::new(),
        },
        (status, _) => Entry {
            benchmark,
            tool,
            status,
            verdict: "-".into(),
            proved: false,
            iterations: 0,
            millis,
            family: String::new(),
        },
    }
}

/// Runs one family's (quick or full) benchmarks through the pool.
pub fn run_family(family: Family, quick: bool, config: &PoolConfig) -> Vec<Entry> {
    run_benches(&select(family, quick), config)
}

/// Runs the whole table suite (all three families) and assembles the report.
pub fn run_suite(quick: bool, config: &PoolConfig) -> Report {
    let benches: Vec<Benchmark> = FAMILIES
        .iter()
        .flat_map(|&family| select(family, quick))
        .collect();
    Report::new(
        if quick { "quick" } else { "full" },
        run_benches(&benches, config),
    )
}

/// Looks up the entry for a (benchmark, tool) pair in a slice of suite
/// entries (the one matching rule shared by every renderer).
fn find_entry<'a>(entries: &'a [Entry], name: &str, tool: &str) -> Option<&'a Entry> {
    entries
        .iter()
        .find(|e| e.benchmark == name && e.tool == tool)
}

fn fmt_entry_time(entry: Option<&Entry>) -> String {
    match entry {
        None => "       ?".to_string(),
        Some(e) => match e.status {
            JobStatus::TimedOut => "     t/o".to_string(),
            JobStatus::Crashed => "   crash".to_string(),
            JobStatus::Ok if e.proved => format!("{:8.3}", e.millis / 1000.0),
            JobStatus::Ok => "       ✗".to_string(),
        },
    }
}

fn fmt_paper(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{s:8.2}"),
        None => "       ✗".to_string(),
    }
}

/// Renders one of the paper's tables from suite entries (which may cover
/// more benchmarks than the table; lookups go by name and tool).
pub fn render_family_table(title: &str, family: Family, quick: bool, entries: &[Entry]) -> String {
    use std::fmt::Write as _;
    let find = |name: &str, tool: &str| find_entry(entries, name, tool);
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(
        out,
        "{:<18} {:>4} {:>4} {:>4} {:>4} | {:>8} {:>8} {:>8} | paper: {:>8} {:>8} {:>8}",
        "benchmark",
        "|N|",
        "|δ|",
        "|V|",
        "|E|",
        "naySL",
        "nayHorn",
        "nope",
        "naySL",
        "nayHorn",
        "nope"
    );
    for bench in select(family, quick) {
        let paper = bench.paper.as_ref();
        let _ = writeln!(
            out,
            "{:<18} {:>4} {:>4} {:>4} {:>4} | {} {} {} | paper: {} {} {}",
            bench.name,
            bench.num_nonterminals(),
            bench.num_productions(),
            bench.num_variables(),
            bench.num_examples(),
            fmt_entry_time(find(&bench.name, "naySL")),
            fmt_entry_time(find(&bench.name, "nayHorn")),
            fmt_entry_time(find(&bench.name, "nope")),
            fmt_paper(paper.and_then(|r| r.naysl_seconds)),
            fmt_paper(paper.and_then(|r| r.nayhorn_seconds)),
            fmt_paper(paper.and_then(|r| r.nope_seconds)),
        );
    }
    out
}

/// Renders the §8.1 solved-benchmark counts from suite entries.
pub fn render_summary(entries: &[Entry], quick: bool) -> String {
    use std::fmt::Write as _;
    let proved = |name: &str, tool: &str| find_entry(entries, name, tool).is_some_and(|e| e.proved);
    let mut out = String::new();
    let _ = writeln!(out, "# §8.1 — solved-benchmark counts");
    let mut totals = (0usize, 0usize, 0usize, 0usize); // (run, naySL, nayHorn, nope)
    let mut naysl_only = 0usize;
    for family in FAMILIES {
        let benches = select(family, quick);
        let mut counts = (0usize, 0usize, 0usize);
        for bench in &benches {
            let sl = proved(&bench.name, "naySL");
            let horn = proved(&bench.name, "nayHorn");
            let nope = proved(&bench.name, "nope");
            counts.0 += usize::from(sl);
            counts.1 += usize::from(horn);
            counts.2 += usize::from(nope);
            naysl_only += usize::from(sl && !nope);
            totals.0 += 1;
            totals.1 += usize::from(sl);
            totals.2 += usize::from(horn);
            totals.3 += usize::from(nope);
        }
        let _ = writeln!(
            out,
            "{:<14} ({:>3} run): naySL {:>3}  nayHorn {:>3}  nope {:>3}",
            family.name(),
            benches.len(),
            counts.0,
            counts.1,
            counts.2
        );
    }
    let _ = writeln!(
        out,
        "total          ({:>3} run): naySL {:>3}  nayHorn {:>3}  nope {:>3}  (naySL-only vs nope: {})",
        totals.0, totals.1, totals.2, totals.3, naysl_only
    );
    let _ = writeln!(
        out,
        "paper (132 benchmarks): naySL 70, nayHorn 59, nope 59, naySL-only 11"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_benches_yields_one_entry_per_tool_in_input_order() {
        let benches: Vec<Benchmark> = select(Family::LimitedConst, true)
            .into_iter()
            .take(2)
            .collect();
        let entries = run_benches(&benches, &PoolConfig::serial());
        assert_eq!(entries.len(), benches.len() * TOOLS.len());
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry.benchmark, benches[i / 3].name);
            assert_eq!(entry.tool, TOOLS[i % 3]);
            assert_eq!(entry.status, JobStatus::Ok);
            assert_ne!(entry.verdict, "-");
        }
    }

    #[test]
    fn summary_renders_from_entries() {
        let benches: Vec<Benchmark> = select(Family::LimitedConst, true)
            .into_iter()
            .take(1)
            .collect();
        let entries = run_benches(&benches, &PoolConfig::serial());
        let summary = render_summary(&entries, true);
        assert!(summary.contains("solved-benchmark counts"));
        assert!(summary.contains("LimitedConst"));
    }
}
