//! The repository benchmark: three workloads, every verdict checked, every
//! metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-quick|gen-race|serve-mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `all` runs the three workloads one after another, each in its own
//! process.
//!
//! With `--trace 0` the run measures the end-to-end metrics, scaled to a
//! reference host speed by the probe in `probe.rs`. With
//! `--trace 1` it measures the same phase untraced, then again with spans
//! recorded around the public calls into each layer, and reports the
//! per-layer metrics (plus the tracing overhead). The last line of standard
//! output is one JSON object; the lines before it are a human-readable
//! report with sample counts. `perfbench/LAYERS.md` maps each layer metric
//! to the end-to-end metric and workload it should move.

mod lanes;
mod paper;
mod probe;
mod race;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload measured in its untraced phase. Every time in it but
/// the set-up times is scaled to the reference host speed (see
/// `probe.rs`).
#[derive(Default)]
pub struct Measured {
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Time to a verdict of every operation, in milliseconds; an operation
    /// whose box expired counts with the time it had when the box expired.
    pub latencies_ms: Vec<f64>,
    /// Seconds the timed phase ran, time inside expired boxes included, so
    /// a hang lowers throughput. Throughput is `latencies_ms.len()` over
    /// this.
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Definitive verdicts, over `decisions` verdicts asked for.
    pub decided: u64,
    /// Verdicts asked for (one per operation, three per paper row).
    pub decisions: u64,
    /// One line per failed operation: wrong verdicts, errors, and hangs.
    pub failures: Vec<String>,
    /// How many of the failures are wrong verdicts.
    pub wrong: usize,
}

/// A workload run: the measurement plus, on a traced run, layer metrics.
pub struct Run {
    /// The untraced phase.
    pub measured: Measured,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// Every per-layer metric with its unit; `BENCHMARK.json` lists the same
/// names. A traced run prints all of them, with 0 for layers the workload
/// bypasses.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    ("paper.row.busy_s", "s"),
    ("paper.row.self_share", "ratio"),
    ("nay.sl.busy_s", "s"),
    ("nay.sl.self_share", "ratio"),
    ("sygus.rewrite.busy_s", "s"),
    ("sygus.rewrite.self_share", "ratio"),
    ("nay.lia.analyze.busy_s", "s"),
    ("nay.lia.analyze.self_share", "ratio"),
    ("nay.lia.newton_iterations", "count"),
    ("nay.clia.solve_mutual.busy_s", "s"),
    ("nay.clia.solve_mutual.self_share", "ratio"),
    ("nay.clia.solve_mutual.rounds", "count"),
    ("nay.clia.solve_bool.busy_s", "s"),
    ("nay.clia.solve_bool.self_share", "ratio"),
    ("nay.clia.solve_bool.calls", "count"),
    ("nay.clia.solve_bool.rounds", "count"),
    ("nay.clia.solve_bool.array_sum_share", "ratio"),
    ("nay.clia.solve_int.busy_s", "s"),
    ("nay.clia.solve_int.self_share", "ratio"),
    ("nay.clia.solve_int.calls", "count"),
    ("nay.final_query.busy_s", "s"),
    ("nay.final_query.self_share", "ratio"),
    ("chc.horn.busy_s", "s"),
    ("chc.horn.self_share", "ratio"),
    ("nope.check.busy_s", "s"),
    ("nope.check.self_share", "ratio"),
    ("nope.abstract_iterations", "count"),
    ("sygus.parse.busy_s", "s"),
    ("sygus.parse.self_share", "ratio"),
    ("sygus.parse.calls", "count"),
    ("sygus.fingerprint.busy_s", "s"),
    ("sygus.fingerprint.self_share", "ratio"),
    ("analyze.presolve.busy_s", "s"),
    ("analyze.presolve.self_share", "ratio"),
    ("analyze.presolve.settled_frac", "ratio"),
    ("portfolio.race.busy_s", "s"),
    ("portfolio.race.self_share", "ratio"),
    ("portfolio.overhead_s", "s"),
    ("portfolio.loser_busy_s", "s"),
    ("portfolio.loser_cancel_ms.p50", "ms"),
    ("portfolio.loser_cancel_ms.p99", "ms"),
    ("portfolio.winner.nay_frac", "ratio"),
    ("portfolio.winner.nope_frac", "ratio"),
    ("nay.cegis.check_s", "s"),
    ("nay.cegis.enumerate_verify_s", "s"),
    ("nay.cegis.gfa_checks", "count"),
    ("nay.cegis.iterations", "count"),
    ("nay.cegis.random_examples", "count"),
    ("gen.const_sum.busy_s", "s"),
    ("gen.guarded_const.busy_s", "s"),
    ("gen.max_gap.busy_s", "s"),
    ("gen.pbe_points.busy_s", "s"),
    ("gen.plus_mod.busy_s", "s"),
    ("gen.mod_neg.busy_s", "s"),
    ("serve.op.busy_s", "s"),
    ("serve.op.self_share", "ratio"),
    ("server.hit.busy_s", "s"),
    ("server.hit.self_share", "ratio"),
    ("server.miss.busy_s", "s"),
    ("server.miss.self_share", "ratio"),
    ("server.cache.hit_frac", "ratio"),
    ("server.cache.insertions", "count"),
    ("server.cache.evictions", "count"),
    ("server.hit.latency_p50_ms", "ms"),
    ("server.hit.latency_p99_ms", "ms"),
    ("server.miss.latency_p50_ms", "ms"),
    ("server.miss.latency_p99_ms", "ms"),
    ("server.shed", "count"),
    ("server.deadline_trips", "count"),
    ("runner.warm.queue_wait_p99_ms", "ms"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

const USAGE: &str = "usage: perfbench --workload <paper-quick|gen-race|serve-mix|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let output = match args.workload.as_str() {
        "paper-quick" => paper::run(&args).map(|run| render(&args, &run)),
        "gen-race" => race::run(&args).map(|run| render(&args, &run)),
        "serve-mix" => serve::run(&args).map(|run| render(&args, &run)),
        "all" => run_all(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match output {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workloads `--workload all` runs, each in its own process.
const WORKLOADS: [&str; 3] = ["paper-quick", "gen-race", "serve-mix"];

/// Runs every workload as a child process of this executable (so set-up
/// time and peak RSS stay per workload), prints each report, and ends with
/// one JSON object whose metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    let mut out = String::new();
    for workload in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        if !child.status.success() {
            return Err(format!("{workload} failed ({})", child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (report, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or_else(|| format!("{workload} printed no report"))?;
        let _ = writeln!(out, "{report}");
        let result = runner::Json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
        let field = |key| {
            result
                .get(key)
                .ok_or_else(|| format!("{workload}: no `{key}`"))
        };
        correct &= field("correct")?.as_bool() == Some(true);
        attempted += field("attempted")?.as_u64().unwrap_or(0);
        failed += field("failed")?.as_u64().unwrap_or(0);
        for (name, metric) in field("metrics")?.as_object().unwrap_or(&[]) {
            let value = metric
                .get("value")
                .and_then(runner::Json::as_f64)
                .unwrap_or(0.0);
            let unit = metric
                .get("unit")
                .and_then(runner::Json::as_str)
                .unwrap_or("");
            metrics.push(format!(
                "\"{workload}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(out)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let n = m.latencies_ms.len();
    let pct = |q: f64| stats::quantile(&m.latencies_ms, q).unwrap_or(0.0);
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        metric(
            "setup_s",
            stats::median(&m.setup_s).unwrap_or(0.0),
            "s",
            m.setup_s.len(),
        ),
        metric("throughput_per_s", n as f64 / m.wall_s.max(1e-9), "1/s", n),
        metric("latency_p50_ms", pct(0.50), "ms", n),
        metric("latency_p90_ms", pct(0.90), "ms", n),
        metric("latency_p99_ms", pct(0.99), "ms", n),
        metric(
            "decided_frac",
            m.decided as f64 / m.decisions.max(1) as f64,
            "ratio",
            m.decisions as usize,
        ),
        metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB", 1),
    ]
}

/// The report lines plus the final JSON line.
fn render(args: &Args, run: &Run) -> String {
    let m = &run.measured;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let e2e = end_to_end(m);
    for metric in &e2e {
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} {:<6} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let failed = m.failures.len() as u64;
    let _ = writeln!(
        out,
        "{:<34} {:>16.6} {:<6} n={}",
        "failed_frac",
        failed as f64 / m.attempted.max(1) as f64,
        "ratio",
        m.attempted
    );
    for failure in &m.failures {
        let _ = writeln!(out, "failed: {failure}");
    }
    for note in &run.notes {
        let _ = writeln!(out, "{note}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        for name in run.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(known, _)| known == name),
                "layer metric `{name}` is missing from PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, run.layers.get(*name).copied().unwrap_or(0.0), *unit))
            .collect()
    } else {
        e2e.iter().map(|m| (m.name, m.value, m.unit)).collect()
    };
    if args.trace {
        for (name, value, unit) in &metrics {
            let _ = writeln!(out, "{name:<38} {value:>16.6} {unit}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.wrong == 0,
        m.attempted,
        failed,
        body.join(", ")
    );
    out
}

/// Runs `setup` `times` times, returning the last result and every
/// repetition's duration in seconds. `before` runs ahead of each
/// repetition, outside the timing, and receives the previous result.
///
/// Set-up times are reported as measured: the host probe tracks them
/// poorly (set-up mostly allocates and fills fresh memory), and scaling
/// them by it made their spread wider, not narrower.
pub fn repeat_setup<T>(
    times: usize,
    mut before: impl FnMut(Option<T>) -> Result<(), String>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        before(last.take())?;
        let started = std::time::Instant::now();
        let value = setup()?;
        durations.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one repetition"), durations))
}

/// Adds `<layer>.busy_s`, `<layer>.self_share` and `<layer>.calls` for
/// every traced layer; shares are of `lane_wall_s`, the traced lane time.
pub fn ledger_metrics(
    layers: &mut BTreeMap<String, f64>,
    ledger: &BTreeMap<String, trace::LayerTotals>,
    lane_wall_s: f64,
) {
    let mut covered = 0.0;
    for (name, totals) in ledger {
        layers.insert(format!("{name}.busy_s"), totals.busy_s);
        if PER_LAYER
            .iter()
            .any(|(known, _)| *known == format!("{name}.self_share"))
        {
            layers.insert(format!("{name}.self_share"), totals.self_s / lane_wall_s);
        }
        if PER_LAYER
            .iter()
            .any(|(known, _)| *known == format!("{name}.calls"))
        {
            layers.insert(format!("{name}.calls"), totals.calls as f64);
        }
        covered += totals.self_s;
    }
    layers.insert("trace.wall_s".into(), lane_wall_s);
    layers.insert(
        "trace.residual_frac".into(),
        (lane_wall_s - covered) / lane_wall_s,
    );
}

/// The ledger as report lines: every layer's self time and share of the
/// traced lane time, largest first, then the residual.
pub fn ledger_notes(
    ledger: &BTreeMap<String, trace::LayerTotals>,
    lane_wall_s: f64,
) -> Vec<String> {
    let mut rows: Vec<(&String, &trace::LayerTotals)> = ledger.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut notes = vec![format!(
        "ledger: traced lane time {lane_wall_s:.4} s; layer self time, share, spans"
    )];
    let mut covered = 0.0;
    for (name, totals) in rows {
        covered += totals.self_s;
        notes.push(format!(
            "  {name:<30} {:>10.4} s {:>7.2}% {:>8}",
            totals.self_s,
            100.0 * totals.self_s / lane_wall_s,
            totals.calls
        ));
    }
    notes.push(format!(
        "  {:<30} {:>10.4} s {:>7.2}%",
        "(residual, outside any span)",
        lane_wall_s - covered,
        100.0 * (lane_wall_s - covered) / lane_wall_s
    ));
    let spans: u64 = ledger.values().map(|t| t.calls).sum();
    let cost_ns = trace::span_cost_ns();
    let cost_s = spans as f64 * cost_ns * 1e-9;
    notes.push(format!(
        "recorder cost: {spans} spans x {cost_ns:.1} ns = {cost_s:.6} s ({:.4}% of traced lane time)",
        100.0 * cost_s / lane_wall_s
    ));
    notes
}
