//! Command-line driver regenerating the paper's tables and figures, and the
//! CI perf-regression gate.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- [EXPERIMENT] [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- compare OLD.json NEW.json [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- solve FILE|DIR [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- analyze FILE|DIR [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- gen --out DIR [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- fuzz [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- serve [OPTIONS]
//! cargo run --release -p bench --bin reproduce -- bench-serve [OPTIONS]
//!
//! EXPERIMENT: all | table1-plus | table1-if | table1 | table2 | fig2 | fig3 |
//!             fig4 | fig5 | summary          (default: all)
//!
//! OPTIONS:
//!   --full            run every benchmark instead of the quick subset
//!   --jobs N          worker threads for the benchmark suite (default: 1)
//!   --timeout-ms MS   per-benchmark wall-clock budget (default: none)
//!   --json PATH       write the suite's JSON report to PATH (with `all`)
//!
//! compare OPTIONS:
//!   --threshold-pct P        flag slowdowns beyond P percent (default: 25)
//!   --min-millis M           ignore entries faster than M ms (default: 50)
//!   --throughput-drop-pct P  flag a drop of a fuzz sweep's total
//!                            instances/sec beyond P percent (default: 50;
//!                            only when both reports carry a `throughput`
//!                            block)
//!
//! solve OPTIONS:
//!   --engine nay|nope|race   which engine to drive (default: race)
//!   --timeout-ms MS          per-solve wall-clock budget; cancels the engines
//!                            at expiry (default: 600000)
//!   --json PATH              write the runner-schema JSON report to PATH
//!   --no-presolve            disable the race's static presolve stage
//!   --trace                  print a span waterfall per solve (parse,
//!                            presolve, per-engine race spans, loser
//!                            cancellation; race engine only)
//!
//! analyze OPTIONS:
//!   --json PATH              write the runner-schema JSON report to PATH
//!
//! gen OPTIONS:
//!   --out DIR           output directory (required)
//!   --count N           instances to generate (default: 100)
//!   --seed S            base seed (default: 42); output is byte-identical
//!                       for a fixed (seed, count, families)
//!   --families a,b      restrict to these families (default: all)
//!   --list-families     print the family catalogue and exit
//!
//! fuzz OPTIONS:
//!   --count N                 instances to generate (default: 200)
//!   --seed S                  base seed (default: 7)
//!   --engine E                engines to drive: both | race | nay | nope |
//!                             check (default: both; `check` skips solving
//!                             and only validates generation + round-trip)
//!   --jobs N                  worker threads (default: 1)
//!   --shards N                split the index space into N shards
//!                             (default: one per worker; any N merges to
//!                             the identical aggregate)
//!   --timeout-ms MS           per-engine budget (default: 10000; a
//!                             timeout is an `unknown` claim, never a
//!                             violation)
//!   --json PATH               write the aggregate JSON report to PATH
//!   --failures PATH           write a reproducing-seed failure report for
//!                             every kept violation (first 64)
//!   --throughput-baseline B   gate this sweep's total instances/sec
//!                             against the committed report B (exit 1 on
//!                             a drop beyond the threshold)
//!   --throughput-drop-pct P   threshold for the baseline gate (default: 50)
//!   --families a,b            restrict to these families
//!   --no-presolve             disable the presolve stage when racing
//!   --require-presolved       fail unless the presolve settles at least one
//!                             instance of every attacked family (needs
//!                             `--engine race` with the presolve stage)
//!
//! serve OPTIONS:
//!   --addr HOST:PORT    TCP bind address (default: 127.0.0.1:7171;
//!                       port 0 picks a free port)
//!   --unix PATH         bind a Unix-domain socket instead of TCP
//!   --slots N           warm engine workers (default: 4)
//!   --cache N           verdict-cache capacity, 0 disables (default: 4096)
//!   --max-in-flight N   admission bound on queued+running engine jobs
//!                       (default: 64)
//!   --deadline-ms MS    default per-request deadline (default: 600000)
//!   --no-presolve       disable the static presolve stage
//!   --metrics-addr A    also serve Prometheus text metrics over plain
//!                       HTTP at A (HOST:PORT; port 0 picks a free port)
//!
//! bench-serve OPTIONS:
//!   --addr HOST:PORT    replay against an external daemon; by default an
//!                       in-process daemon is started on a free port
//!   --unix PATH         connect over a Unix-domain socket instead
//!   --corpus DIR        corpus to replay, gated by its MANIFEST race
//!                       column (default: corpus)
//!   --gen-count N       also stream N generated instances (default: 0)
//!   --seed S            base seed for the generated stream (default: 7)
//!   --families a,b      restrict the generated stream to these families
//!   --clients N         concurrent client connections (default: 2)
//!   --passes N          workload replays; pass 1 fills the cache, later
//!                       passes must hit it (default: 2)
//!   --qps Q             per-client request rate cap (default: unlimited)
//!   --deadline-ms MS    per-request deadline (default: the daemon's)
//!   --slots N           warm workers for the in-process daemon (default: 4)
//!   --json PATH         write the runner-schema JSON report to PATH
//! ```
//!
//! `compare` exits 0 when the new report has no regressions against the old
//! one, 1 when it does, and 2 on usage or parse errors. Its summary counts
//! the entries compared and, of those, the entries timed against the
//! threshold (both completed with one verdict, new time at or above the
//! floor): only those can be flagged as slowdowns. It also prints each
//! tool's summed time, old → new, over the entries both reports completed,
//! which shows a suite-wide shift that no single entry does. `solve` exits 0
//! when every file parses, every engine completes, and (when the corpus
//! has a `MANIFEST`) every verdict matches the expectation; 1 on any
//! corpus failure; 2 on usage errors. `fuzz` exits 0 on a clean sweep, 1
//! when any oracle (differential, expectation, witness, or print→parse
//! round-trip) is violated — the presolve's verdicts included when racing
//! — or, with `--require-presolved`, when a family was never settled
//! statically, or, with `--throughput-baseline`, when the total rate
//! dropped beyond the threshold; and 2 on usage errors. `analyze` exits 0 when
//! no file produces an error-severity diagnostic, 1 otherwise, 2 on usage
//! errors. `serve` blocks until a client
//! sends the `shutdown` op, then exits 0. `bench-serve` exits 0 when
//! every response matches its expectation (the MANIFEST race column for
//! corpus instances, non-contradiction for generated ones), 1 on any
//! mismatch or error response, and 2 on usage errors.
//!
//! A reader that closes stdout early (`reproduce compare A B | head -1`)
//! only drops the rest of the output: the command still ends with its own
//! exit status.

use runner::{compare, CompareConfig, PoolConfig, Report};
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

/// `println!` through [`out`].
macro_rules! say {
    ($($arg:tt)*) => {
        out(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `text` to stdout, like `print!`, except that a closed pipe drops
/// the output instead of panicking.
fn out(text: &str) {
    if let Err(e) = write_quietly(&mut io::stdout(), text) {
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

/// Writes `text`, treating a reader that went away ([`io::ErrorKind::BrokenPipe`])
/// as success.
fn write_quietly(writer: &mut impl Write, text: &str) -> io::Result<()> {
    match writer.write_all(text.as_bytes()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("run with no arguments for the default quick sweep; see README.md for the CLI");
    std::process::exit(2);
}

/// Parses the value following a `--flag`.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(text) = value else {
        usage_error(&format!("`{flag}` needs a value"));
    };
    match text.parse() {
        Ok(v) => v,
        Err(_) => usage_error(&format!("`{flag}` got an unparsable value `{text}`")),
    }
}

fn run_compare(args: &[String]) -> ! {
    let mut paths: Vec<&String> = Vec::new();
    let mut config = CompareConfig::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold-pct" => config.threshold_pct = parse_value(arg, iter.next()),
            "--min-millis" => config.min_millis = parse_value(arg, iter.next()),
            "--throughput-drop-pct" => config.throughput_drop_pct = parse_value(arg, iter.next()),
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown compare option `{flag}`"))
            }
            _ => paths.push(arg),
        }
    }
    let [old_path, new_path] = paths[..] else {
        usage_error("compare needs exactly two report paths: OLD.json NEW.json");
    };
    let load = |path: &String| -> Report {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        Report::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: `{path}` is not a valid report: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let regressions = compare(&old, &new, &config);
    let totals: Vec<String> = runner::tool_totals(&old, &new)
        .iter()
        .map(|(tool, (was, now))| format!("{tool} {was:.1}ms -> {now:.1}ms"))
        .collect();
    say!(
        "tool totals over entries both completed: {}",
        totals.join(", ")
    );
    if regressions.is_empty() {
        say!(
            "no regressions: {} entries compared, {} timed (threshold {}%, floor {}ms)",
            old.entries.len(),
            runner::timed_entries(&old, &new, &config),
            config.threshold_pct,
            config.min_millis
        );
        std::process::exit(0);
    }
    say!(
        "{} regression(s) against `{old_path}` ({} entries compared, {} timed):",
        regressions.len(),
        old.entries.len(),
        runner::timed_entries(&old, &new, &config)
    );
    for regression in &regressions {
        say!("  {regression}");
    }
    std::process::exit(1);
}

fn run_solve(args: &[String]) -> ! {
    let mut target: Option<&String> = None;
    let mut engine = bench::Engine::Race;
    let mut timeout: Option<Duration> = None;
    let mut json_path: Option<String> = None;
    let mut presolve = true;
    let mut trace = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--engine" => {
                let name: String = parse_value(arg, iter.next());
                engine = bench::Engine::parse(&name).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown engine `{name}` (expected nay, nope, or race)"
                    ))
                });
            }
            "--timeout-ms" => timeout = Some(Duration::from_millis(parse_value(arg, iter.next()))),
            "--json" => json_path = Some(parse_value::<String>(arg, iter.next())),
            "--no-presolve" => presolve = false,
            "--trace" => trace = true,
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown solve option `{flag}`"))
            }
            _ => {
                if target.is_some() {
                    usage_error(&format!("unexpected extra argument `{arg}`"));
                }
                target = Some(arg);
            }
        }
    }
    let Some(target) = target else {
        usage_error("solve needs a FILE or DIR of SyGuS-IF .sl problems");
    };
    let target = Path::new(target);
    let files = bench::collect_sl_files(target).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    if trace && engine != bench::Engine::Race {
        usage_error("`--trace` renders race-phase waterfalls; it needs `--engine race`");
    }
    let (rows, report, totals) = bench::run_solve(&files, engine, timeout, presolve, trace)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} entries to {path} (suite: {})",
            report.entries.len(),
            report.suite
        );
    }
    say!("{}", bench::render_solve(&rows, engine, &totals));

    // Gate against the corpus MANIFEST when one is present next to the
    // problems (the directory itself, or the file's parent directory).
    let manifest_dir = if target.is_dir() {
        target
    } else {
        target.parent().unwrap_or(Path::new("."))
    };
    let manifest = bench::Manifest::load(manifest_dir).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    match manifest {
        None => {
            let incomplete: Vec<_> = report
                .entries
                .iter()
                .filter(|e| e.status != runner::JobStatus::Ok)
                .collect();
            if !incomplete.is_empty() {
                for entry in incomplete {
                    eprintln!(
                        "corpus failure: {}/{}: status {}",
                        entry.benchmark,
                        entry.tool,
                        entry.status.as_str()
                    );
                }
                std::process::exit(1);
            }
        }
        Some(manifest) => {
            let problems = bench::check_manifest(&report, engine, &manifest, target.is_dir());
            if !problems.is_empty() {
                for p in &problems {
                    eprintln!("corpus failure: {p}");
                }
                eprintln!("{} corpus failure(s) against the MANIFEST", problems.len());
                std::process::exit(1);
            }
            say!(
                "MANIFEST: all {} expected verdicts match for engine {}",
                files.len(),
                engine.name()
            );
        }
    }
    std::process::exit(0);
}

fn run_analyze(args: &[String]) -> ! {
    let mut target: Option<&String> = None;
    let mut json_path: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json_path = Some(parse_value::<String>(arg, iter.next())),
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown analyze option `{flag}`"))
            }
            _ => {
                if target.is_some() {
                    usage_error(&format!("unexpected extra argument `{arg}`"));
                }
                target = Some(arg);
            }
        }
    }
    let Some(target) = target else {
        usage_error("analyze needs a FILE or DIR of SyGuS-IF .sl problems");
    };
    let files = bench::collect_sl_files(Path::new(target)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (rows, report) = bench::run_analyze(&files).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    out(&bench::render_analyze(&rows));
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} entries to {path} (suite: {})",
            report.entries.len(),
            report.suite
        );
    }
    std::process::exit(if bench::has_analyze_errors(&rows) {
        1
    } else {
        0
    });
}

/// Parses a comma-separated `--families` value.
fn parse_families(value: Option<&String>) -> Vec<gen::Family> {
    let Some(text) = value else {
        usage_error("`--families` needs a comma-separated value");
    };
    text.split(',')
        .map(|name| {
            gen::Family::parse(name.trim()).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown family `{name}` (known: {})",
                    gen::Family::ALL
                        .iter()
                        .map(|f| f.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
        })
        .collect()
}

fn run_gen(args: &[String]) -> ! {
    let mut config = bench::FuzzConfig {
        count: 100,
        seed: 42,
        ..bench::FuzzConfig::default()
    };
    let mut out_dir: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--count" => config.count = parse_value(arg, iter.next()),
            "--seed" => config.seed = parse_value(arg, iter.next()),
            "--out" => out_dir = Some(parse_value::<String>(arg, iter.next())),
            "--families" => config.families = Some(parse_families(iter.next())),
            "--list-families" => {
                for family in gen::Family::ALL {
                    say!("{:<16} {}", family.name(), family.description());
                }
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown gen option `{other}`")),
        }
    }
    let Some(out_dir) = out_dir else {
        usage_error("gen needs `--out DIR`");
    };
    match bench::run_gen(Path::new(&out_dir), &config) {
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Ok(counts) => {
            let written: usize = counts.values().sum();
            if written < config.count {
                eprintln!(
                    "note: instance space exhausted after {written} of {} requested",
                    config.count
                );
            }
            say!(
                "wrote {written} instances to {out_dir} (seed {}):",
                config.seed
            );
            for (family, count) in counts {
                say!("  {family:<16} {count}");
            }
            std::process::exit(0);
        }
    }
}

fn run_fuzz(args: &[String]) -> ! {
    let mut config = bench::FuzzConfig::default();
    let mut json_path: Option<String> = None;
    let mut failures_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut drop_pct: Option<f64> = None;
    let mut require_presolved = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--count" => config.count = parse_value(arg, iter.next()),
            "--seed" => config.seed = parse_value(arg, iter.next()),
            "--jobs" => config.jobs = parse_value(arg, iter.next()),
            "--shards" => config.shards = parse_value(arg, iter.next()),
            "--timeout-ms" => config.timeout = Duration::from_millis(parse_value(arg, iter.next())),
            "--json" => json_path = Some(parse_value::<String>(arg, iter.next())),
            "--failures" => failures_path = Some(parse_value::<String>(arg, iter.next())),
            "--throughput-baseline" => {
                baseline_path = Some(parse_value::<String>(arg, iter.next()))
            }
            "--throughput-drop-pct" => drop_pct = Some(parse_value(arg, iter.next())),
            "--families" => config.families = Some(parse_families(iter.next())),
            "--no-presolve" => config.presolve = false,
            "--require-presolved" => require_presolved = true,
            "--engine" => {
                let name: String = parse_value(arg, iter.next());
                config.engine = bench::FuzzEngine::parse(&name).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown fuzz engine `{name}` (expected both, race, nay, nope, or check)"
                    ))
                });
            }
            other => usage_error(&format!("unknown fuzz option `{other}`")),
        }
    }
    if require_presolved && (config.engine != bench::FuzzEngine::Race || !config.presolve) {
        usage_error("`--require-presolved` needs `--engine race` with the presolve stage");
    }
    let outcome = bench::run_fuzz(&config);
    // Violations first: they are the sweep's whole point, and must reach
    // the user even when the JSON report cannot be written.
    say!("{}", bench::render_fuzz(&outcome, &config));
    if outcome.violations_total > 0 {
        for violation in &outcome.violations {
            eprintln!("{violation}");
        }
        if outcome.violations_total > outcome.violations.len() {
            eprintln!(
                "... and {} more (first {} kept)",
                outcome.violations_total - outcome.violations.len(),
                outcome.violations.len()
            );
        }
        eprintln!(
            "{} oracle violation(s) — the solver stack is unsound on the instances above",
            outcome.violations_total
        );
    }
    // The failure artifact carries everything needed to reproduce each
    // violation offline: the instance seed, the exact sweep command, and
    // the offending SyGuS-IF text. Written even when empty so CI can
    // upload it unconditionally.
    if let Some(path) = &failures_path {
        let mut text = format!(
            "# fuzz failure report — engine {}, count {}, seed {}, {} violation(s)\n",
            config.engine.name(),
            config.count,
            config.seed,
            outcome.violations_total,
        );
        if outcome.violations_total > outcome.violations.len() {
            text.push_str(&format!(
                "# (first {} of {} kept; re-run the command below for the rest)\n",
                outcome.violations.len(),
                outcome.violations_total
            ));
        }
        text.push_str(&format!(
            "# reproduce the sweep: reproduce fuzz --engine {} --count {} --seed {}\n\n",
            config.engine.name(),
            config.count,
            config.seed,
        ));
        for violation in &outcome.violations {
            text.push_str(&format!(
                "# reproduce this instance alone: reproduce fuzz --engine {} --count 1 \
                 --families {} --seed <base seed for instance_seed {}>\n{violation}\n",
                config.engine.name(),
                violation.family,
                violation.seed,
            ));
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} of {} violation(s) to {path}",
            outcome.violations.len(),
            outcome.violations_total
        );
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, outcome.report.to_json()) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} aggregate entries to {path} (suite: {})",
            outcome.report.entries.len(),
            outcome.report.suite
        );
    }
    // The throughput gate: a committed baseline report turns instances/sec
    // into a blocking metric, same as the per-entry perf gate.
    let mut throughput_regressed = false;
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        let baseline = Report::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: `{path}` is not a valid report: {e}");
            std::process::exit(2);
        });
        let compare_config = CompareConfig {
            throughput_drop_pct: drop_pct.unwrap_or(CompareConfig::default().throughput_drop_pct),
            ..CompareConfig::default()
        };
        let regressions = runner::compare_throughput(&baseline, &outcome.report, &compare_config);
        if regressions.is_empty() {
            say!(
                "throughput gate vs `{path}`: ok (drop threshold {}%)",
                compare_config.throughput_drop_pct
            );
        } else {
            say!(
                "{} throughput regression(s) against `{path}`:",
                regressions.len()
            );
            for regression in &regressions {
                say!("  {regression}");
            }
            throughput_regressed = true;
        }
    }
    // The presolve gate: every attacked family must have an instance the
    // static analyzer settled (and the oracles above accepted).
    let unpresolved = if require_presolved {
        outcome.unpresolved_families()
    } else {
        Vec::new()
    };
    for family in &unpresolved {
        eprintln!("family {family}: no instance was settled statically");
    }
    std::process::exit(
        if outcome.violations_total == 0 && !throughput_regressed && unpresolved.is_empty() {
            0
        } else {
            1
        },
    );
}

fn run_serve(args: &[String]) -> ! {
    let mut config = server::ServerConfig {
        bind: server::Bind::Tcp("127.0.0.1:7171".into()),
        ..server::ServerConfig::default()
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                config.bind = server::Bind::Tcp(parse_value::<String>(arg, iter.next()));
            }
            "--unix" => {
                config.bind =
                    server::Bind::Unix(parse_value::<std::path::PathBuf>(arg, iter.next()));
            }
            "--slots" => config.slots = parse_value(arg, iter.next()),
            "--cache" => config.cache_capacity = parse_value(arg, iter.next()),
            "--max-in-flight" => config.max_in_flight = parse_value(arg, iter.next()),
            "--deadline-ms" => {
                config.default_deadline = Duration::from_millis(parse_value(arg, iter.next()))
            }
            "--no-presolve" => config.presolve = false,
            "--metrics-addr" => {
                config.metrics_addr = Some(parse_value::<String>(arg, iter.next()));
            }
            other => usage_error(&format!("unknown serve option `{other}`")),
        }
    }
    let server = server::Server::bind(config.clone()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind: {e}");
        std::process::exit(2);
    });
    say!(
        "serving on {} ({} warm workers, cache capacity {}, presolve {})",
        server.endpoint(),
        config.slots,
        config.cache_capacity,
        if config.presolve { "on" } else { "off" }
    );
    if let Some(scrape) = server.metrics_endpoint() {
        say!("metrics scrape endpoint on http://{scrape}/metrics");
    }
    match server.run() {
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            std::process::exit(1);
        }
        Ok(stats) => {
            say!(
                "shut down after {} request(s): {} cache hit(s), {} timeout(s), {} error(s)",
                stats.requests,
                stats.cache_hits,
                stats.timeouts,
                stats.errors
            );
            std::process::exit(0);
        }
    }
}

fn run_bench_serve(args: &[String]) -> ! {
    let mut endpoint: Option<server::Endpoint> = None;
    let mut corpus_dir = "corpus".to_string();
    let mut gen_count = 0usize;
    let mut seed = 7u64;
    let mut families: Option<Vec<gen::Family>> = None;
    let mut slots = 4usize;
    let mut json_path: Option<String> = None;
    let mut config = bench::LoadConfig::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let addr: String = parse_value(arg, iter.next());
                let resolved = addr.parse().unwrap_or_else(|e| {
                    usage_error(&format!("`--addr` got an unparsable address `{addr}`: {e}"))
                });
                endpoint = Some(server::Endpoint::Tcp(resolved));
            }
            "--unix" => {
                endpoint = Some(server::Endpoint::Unix(parse_value(arg, iter.next())));
            }
            "--corpus" => corpus_dir = parse_value(arg, iter.next()),
            "--gen-count" => gen_count = parse_value(arg, iter.next()),
            "--seed" => seed = parse_value(arg, iter.next()),
            "--families" => families = Some(parse_families(iter.next())),
            "--clients" => config.clients = parse_value(arg, iter.next()),
            "--passes" => config.passes = parse_value(arg, iter.next()),
            "--qps" => config.qps = Some(parse_value(arg, iter.next())),
            "--deadline-ms" => config.deadline_ms = Some(parse_value(arg, iter.next())),
            "--slots" => slots = parse_value(arg, iter.next()),
            "--json" => json_path = Some(parse_value::<String>(arg, iter.next())),
            other => usage_error(&format!("unknown bench-serve option `{other}`")),
        }
    }

    let mut workload = bench::corpus_workload(Path::new(&corpus_dir)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    workload.extend(bench::gen_workload(gen_count, seed, families));
    if workload.is_empty() {
        usage_error("the workload is empty (no corpus files and --gen-count 0)");
    }

    // Without --addr/--unix, spin up an in-process daemon on a free port
    // and shut it down once the replay is done.
    let own_daemon = endpoint.is_none().then(|| {
        let server = server::Server::bind(server::ServerConfig {
            slots,
            ..server::ServerConfig::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind the in-process daemon: {e}");
            std::process::exit(2);
        });
        let endpoint = server.endpoint();
        let handle = std::thread::spawn(move || server.run());
        (endpoint, handle)
    });
    let endpoint = endpoint.unwrap_or_else(|| own_daemon.as_ref().unwrap().0.clone());

    let outcome = bench::run_load(&endpoint, &workload, &config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    out(&bench::render_load(&outcome, &config));

    if let Some((endpoint, handle)) = own_daemon {
        if let Ok(mut client) = server::Client::connect(&endpoint) {
            let _ = client.shutdown();
        }
        let _ = handle.join();
    }

    for mismatch in &outcome.mismatches {
        eprintln!("serve mismatch: {mismatch}");
    }
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, outcome.report.to_json()) {
            eprintln!("error: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "wrote {} entries to {path} (suite: {})",
            outcome.report.entries.len(),
            outcome.report.suite
        );
    }
    std::process::exit(if outcome.mismatches.is_empty() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("solve") {
        run_solve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("analyze") {
        run_analyze(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("gen") {
        run_gen(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        run_fuzz(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-serve") {
        run_bench_serve(&args[1..]);
    }

    let mut quick = true;
    let mut config = PoolConfig::serial();
    let mut json_path: Option<String> = None;
    let mut experiment: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => quick = false,
            "--jobs" => config.jobs = parse_value(arg, iter.next()),
            "--timeout-ms" => {
                config.timeout = Some(Duration::from_millis(parse_value(arg, iter.next())))
            }
            "--json" => {
                json_path = Some(parse_value::<String>(arg, iter.next()));
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown option `{flag}`")),
            name => {
                if experiment.is_some() {
                    usage_error(&format!("unexpected extra argument `{name}`"));
                }
                experiment = Some(name.to_string());
            }
        }
    }
    let experiment = experiment.unwrap_or_else(|| "all".to_string());

    if json_path.is_some() && experiment != "all" && experiment != "summary" {
        usage_error(
            "`--json` is only supported with the `all` and `summary` experiments (they run the table suite)",
        );
    }

    let write_report = |report: &runner::Report| {
        if let Some(path) = &json_path {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("error: cannot write `{path}`: {e}");
                std::process::exit(2);
            }
            eprintln!(
                "wrote {} benchmark entries to {path} (suite: {})",
                report.entries.len(),
                report.suite
            );
        }
    };

    let report = match experiment.as_str() {
        "all" => {
            let (text, report) = bench::reproduce_all_with(quick, &config);
            write_report(&report);
            text
        }
        "table1-plus" => bench::reproduce_table1_plus_with(quick, &config),
        "table1-if" => bench::reproduce_table1_if_with(quick, &config),
        "table1" => format!(
            "{}\n{}",
            bench::reproduce_table1_plus_with(quick, &config),
            bench::reproduce_table1_if_with(quick, &config)
        ),
        "table2" => bench::reproduce_table2_with(quick, &config),
        "fig2" => bench::reproduce_fig2(quick),
        "fig3" | "fig5" | "fig3-fig5" => bench::reproduce_fig3_fig5(quick),
        "fig4" => bench::reproduce_fig4(quick),
        "summary" => {
            let report = bench::run_suite(quick, &config);
            write_report(&report);
            bench::render_summary(&report.entries, quick)
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("expected one of: all, table1-plus, table1-if, table1, table2, fig2, fig3, fig4, fig5, summary, compare");
            std::process::exit(2);
        }
    };
    say!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader is gone (or, with another kind, broken).
    struct Closed(io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::from(self.0))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_broken_pipe_is_not_an_error() {
        assert!(write_quietly(&mut Closed(io::ErrorKind::BrokenPipe), "line\n").is_ok());
        let other = write_quietly(&mut Closed(io::ErrorKind::PermissionDenied), "line\n");
        assert_eq!(
            other.map_err(|e| e.kind()),
            Err(io::ErrorKind::PermissionDenied)
        );
        let mut buffer = Vec::new();
        write_quietly(&mut buffer, "line\n").unwrap();
        assert_eq!(buffer, b"line\n");
    }
}
