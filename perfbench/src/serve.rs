//! `serve-mix`: an in-process daemon under two closed-loop clients.
//!
//! The daemon runs with 2 warm engine slots and its verdict cache on, sized
//! above the number of distinct problems so nothing is evicted. The stream
//! mixes the corpus files (checked exactly against the MANIFEST race
//! column) with the six `gen-race` families (checked against their
//! by-construction claims). Each distinct problem is sent once, then
//! re-sent at seeded later positions. About 30% of positions bring a new
//! problem, and about half of those race the engines (the presolve settles
//! the rest), so `latency_p50_ms` falls on cache hits and `latency_p90_ms`
//! and `latency_p99_ms` on misses that race the engines. The p90 is kept
//! off the presolve-settled misses: a quantile at the border between two
//! paths moves with the host far more than one inside a path. The run serves the schedule in rounds,
//! each on a fresh daemon, until the time is up.
//!
//! The traced run replays the first round's requests against a fresh
//! daemon, with spans around a client-side replay of the daemon's parse
//! and fingerprint steps and around each round trip (named by whether it
//! hit the cache). Cache and queue counters come from each round's
//! daemon's `stats` op before and after the round.

use crate::lanes::{run_lanes, LaneWork, Outcome};
use crate::probe::{run_sliced, Sliced, RACING};
use crate::stats::quantile;
use crate::trace::{ledger, write_spans, Tracer};
use crate::{ledger_metrics, ledger_notes, repeat_setup, Args, Measured, Run};
use bench::{corpus_workload, gen_workload, Expected, WorkItem};
use gen::GenRng;
use server::{Client, Endpoint, Request, ResponseStatus, Server, ServerConfig, StatsSnapshot};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generated problems in the stream (distinct by fingerprint), on top of
/// the corpus: more than one round introduces.
const GENERATED: usize = 7_000;

/// Schedule length: the requests of one round (a few seconds on a 2-CPU
/// container).
const SCHEDULE: usize = 20_000;

/// Percent of schedule positions that introduce a new problem.
const NEW_PERCENT: u32 = 30;

/// Verdict-cache capacity: above the number of distinct problems.
const CACHE_CAPACITY: usize = 1 << 16;

/// Per-request deadline sent to the daemon.
const DEADLINE_MS: u64 = 10_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 15;

/// The outside box on one request.
const OP_BOX: Duration = Duration::from_secs(30);

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;

/// The request stream: distinct problems and the order they are sent in.
struct Mix {
    items: Vec<WorkItem>,
    schedule: Vec<usize>,
}

fn build_mix(seed: u64) -> Result<Mix, String> {
    let corpus = corpus_workload(Path::new("corpus"))?;
    if corpus.is_empty() {
        return Err("the corpus directory holds no problems".into());
    }
    let corpus_len = corpus.len();
    let generated = gen_workload(GENERATED, seed, Some(crate::race::FAMILIES.to_vec()));
    let mut items = corpus;
    items.extend(generated);
    // First sights: the corpus files at seeded places among the first
    // few dozen new problems, then the generated stream in order.
    let mut rng = GenRng::from_seed(seed ^ 0x5e7e_5e7e);
    let mut order: Vec<usize> = (corpus_len..items.len()).collect();
    for corpus_index in 0..corpus_len {
        let at = rng.index(4 * corpus_len).min(order.len());
        order.insert(at, corpus_index);
    }
    let mut schedule = Vec::with_capacity(SCHEDULE);
    let mut introduced = 0usize;
    while schedule.len() < SCHEDULE {
        if introduced == 0 || (introduced < order.len() && rng.chance(NEW_PERCENT)) {
            schedule.push(order[introduced]);
            introduced += 1;
        } else {
            schedule.push(order[rng.index(introduced)]);
        }
    }
    Ok(Mix { items, schedule })
}

/// The daemon counters the layer metrics read, summed over rounds.
#[derive(Default)]
struct Counters {
    hits: f64,
    misses: f64,
    insertions: f64,
    evictions: f64,
    shed: f64,
    deadline_trips: f64,
    /// The worst round's queue-wait p99.
    queue_wait_p99_ms: f64,
}

impl Counters {
    /// Adds one daemon's counts between two `stats` snapshots.
    fn add(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        let delta = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
        self.hits += delta(|s| s.cache_hits);
        self.misses += delta(|s| s.cache_misses);
        self.insertions += delta(|s| s.cache_insertions);
        self.evictions += delta(|s| s.cache_evictions);
        self.shed += delta(|s| s.shed);
        self.deadline_trips += delta(|s| s.deadline_trips);
        self.queue_wait_p99_ms = self.queue_wait_p99_ms.max(after.queue_wait_p99_ms);
    }
}

/// Folds one round's outcomes into the measurement and the hit and miss
/// samples.
fn tally(
    mix: &Mix,
    outcomes: impl Iterator<Item = Outcome<ServeOut>>,
    measured: &mut Measured,
    hit_ms: &mut Vec<f64>,
    miss_ms: &mut Vec<f64>,
) {
    for outcome in outcomes {
        measured.attempted += 1;
        measured.decisions += 1;
        match outcome {
            Outcome::Done { op, result, millis } => {
                let item = &mix.items[mix.schedule[op]];
                measured.latencies_ms.push(millis);
                if let Some(error) = &result.error {
                    measured.failures.push(format!("{}: {error}", item.name));
                    continue;
                }
                if result.cached {
                    hit_ms.push(millis);
                } else {
                    miss_ms.push(millis);
                }
                if !result.timeout
                    && (result.verdict == "realizable" || result.verdict == "unrealizable")
                {
                    measured.decided += 1;
                }
                if let Err(e) = check(item, &result.verdict) {
                    measured.failures.push(e);
                    measured.wrong += 1;
                }
            }
            Outcome::Hung { op, millis } => {
                measured.latencies_ms.push(millis);
                measured.failures.push(format!(
                    "{}: no response within {OP_BOX:?}",
                    mix.items[mix.schedule[op]].name
                ));
            }
        }
    }
}

/// A running in-process daemon.
struct Daemon {
    endpoint: Endpoint,
    thread: JoinHandle<std::io::Result<StatsSnapshot>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            slots: 2,
            cache_capacity: CACHE_CAPACITY,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let endpoint = server.endpoint();
        let thread = std::thread::Builder::new()
            .name("daemon".into())
            .spawn(move || server.run())
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(Daemon { endpoint, thread })
    }

    fn stats(&self) -> Result<StatsSnapshot, String> {
        Client::connect_retry(&self.endpoint, Duration::from_secs(5))
            .map_err(|e| e.to_string())?
            .stats()
            .map_err(|e| e.to_string())?
            .stats
            .ok_or_else(|| "the stats response carries no stats".to_string())
    }

    fn stop(self) -> Result<(), String> {
        Client::connect_retry(&self.endpoint, Duration::from_secs(5))
            .map_err(|e| e.to_string())?
            .shutdown()
            .map_err(|e| e.to_string())?;
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("the daemon failed: {e}"))?;
        Ok(())
    }
}

/// What one request produced.
struct ServeOut {
    verdict: String,
    cached: bool,
    timeout: bool,
    error: Option<String>,
}

fn request(client: &mut Client, op: usize, item: &WorkItem) -> ServeOut {
    let request =
        Request::solve(format!("r{op}"), item.text.as_str()).with_deadline_ms(DEADLINE_MS);
    match client.request(&request) {
        Err(e) => ServeOut {
            verdict: "-".into(),
            cached: false,
            timeout: false,
            error: Some(format!("client error: {e}")),
        },
        Ok(response) => ServeOut {
            verdict: response.verdict.unwrap_or_else(|| "-".into()),
            cached: response.cached,
            timeout: response.status == ResponseStatus::Timeout,
            error: (response.status == ResponseStatus::Error).then(|| {
                format!(
                    "error response {}: {}",
                    response.error_code.map_or("-", |c| c.as_str()),
                    response.error.unwrap_or_default()
                )
            }),
        },
    }
}

fn connect(endpoint: &Endpoint) -> Client {
    Client::connect_retry(endpoint, Duration::from_secs(5)).expect("connecting to the daemon")
}

struct Untraced {
    mix: Arc<Mix>,
    endpoint: Endpoint,
}

impl LaneWork for Untraced {
    type State = Client;
    type Output = ServeOut;
    fn init(&self, _lane: usize) -> Client {
        connect(&self.endpoint)
    }
    fn run(&self, client: &mut Client, op: usize) -> ServeOut {
        request(client, op, &self.mix.items[self.mix.schedule[op]])
    }
}

/// `Err` when a response contradicts the item's expectation.
fn check(item: &WorkItem, verdict: &str) -> Result<(), String> {
    match &item.expected {
        Expected::Exactly(want) if want != verdict => Err(format!(
            "{}: verdict {verdict}, MANIFEST race column says {want}",
            item.name
        )),
        Expected::NoContradiction(truth)
            if (verdict == "realizable" || verdict == "unrealizable") && verdict != truth =>
        {
            Err(format!(
                "{} ({}): verdict {verdict} contradicts the claim {truth}",
                item.name, item.family
            ))
        }
        _ => Ok(()),
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    // Set-up builds the stream and binds a daemon; each repetition stops
    // the previous repetition's daemon (outside the timing).
    let stop_previous = |previous: Option<(Mix, Daemon)>| match previous {
        Some((_, daemon)) => daemon.stop(),
        None => Ok(()),
    };
    let ((mix, daemon), setup_s) = repeat_setup(SETUPS, stop_previous, || {
        let mix = build_mix(args.seed)?;
        let daemon = Daemon::start()?;
        Ok((mix, daemon))
    })?;
    let mix = Arc::new(mix);
    // Rounds until the time is up: each round serves the schedule from its
    // start on a fresh daemon, so every round has the same mix of first
    // sights and repeats, and the cache (and so the memory) never holds
    // more than one round's problems, however fast the host runs.
    let stop_at = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut daemon = Some(daemon);
    let mut counters = Counters::default();
    let mut rounds: Vec<(usize, f64)> = Vec::new();
    let mut phase: Option<Sliced<ServeOut>> = None;
    let mut measured = Measured {
        setup_s,
        ..Measured::default()
    };
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    while Instant::now() < stop_at {
        let daemon = match daemon.take() {
            Some(daemon) => daemon,
            None => Daemon::start()?,
        };
        let before = daemon.stats()?;
        let mut round = run_sliced(
            Arc::new(Untraced {
                mix: Arc::clone(&mix),
                endpoint: daemon.endpoint.clone(),
            }),
            CLIENTS,
            0..mix.schedule.len(),
            Some(stop_at),
            OP_BOX,
            RACING,
            drop,
        );
        counters.add(&before, &daemon.stats()?);
        daemon.stop()?;
        rounds.push((round.outcomes.len(), round.raw_wall_s));
        // Tally the round now and keep only its samples, so memory does
        // not grow with the number of requests the host manages to serve.
        tally(
            &mix,
            round.outcomes.drain(..),
            &mut measured,
            &mut hit_ms,
            &mut miss_ms,
        );
        match &mut phase {
            Some(phase) => phase.append(round),
            None => phase = Some(round),
        }
    }
    let phase = phase.ok_or("no time to serve a single request")?;
    measured.wall_s = phase.wall_s;
    let mut notes = vec![
        format!(
            "serve-mix: {} requests ({} hits, {} misses) in {} round(s) of up to {} over {} distinct \
             problems on {CLIENTS} clients",
            measured.attempted,
            hit_ms.len(),
            miss_ms.len(),
            rounds.len(),
            mix.schedule.len(),
            mix.items.len(),
        ),
        phase.note(),
    ];
    let mut layers = BTreeMap::new();
    if args.trace {
        let pct = |v: &Vec<f64>, q| quantile(v, q).unwrap_or(0.0);
        layers.insert("server.hit.latency_p50_ms".into(), pct(&hit_ms, 0.5));
        layers.insert("server.hit.latency_p99_ms".into(), pct(&hit_ms, 0.99));
        layers.insert("server.miss.latency_p50_ms".into(), pct(&miss_ms, 0.5));
        layers.insert("server.miss.latency_p99_ms".into(), pct(&miss_ms, 0.99));
        let c = &counters;
        layers.insert(
            "server.cache.hit_frac".into(),
            c.hits / (c.hits + c.misses).max(1.0),
        );
        layers.insert("server.cache.insertions".into(), c.insertions);
        layers.insert("server.cache.evictions".into(), c.evictions);
        layers.insert("server.shed".into(), c.shed);
        layers.insert("server.deadline_trips".into(), c.deadline_trips);
        layers.insert("runner.warm.queue_wait_p99_ms".into(), c.queue_wait_p99_ms);
        notes.push(format!(
            "daemon: {} hits, {} misses, {} insertions, {} evictions, {} shed, {} deadline trips, \
             queue-wait p99 {} ms (bucket edge, worst round)",
            c.hits,
            c.misses,
            c.insertions,
            c.evictions,
            c.shed,
            c.deadline_trips,
            c.queue_wait_p99_ms
        ));
        // The traced replay serves the first round's requests.
        let (first_ops, first_wall_s) = rounds[0];
        traced(
            args,
            &mix,
            first_ops,
            first_wall_s,
            &mut measured,
            &mut layers,
            &mut notes,
        )?;
    }
    Ok(Run {
        measured,
        layers,
        notes,
    })
}

struct Traced {
    mix: Arc<Mix>,
    endpoint: Endpoint,
    epoch: Instant,
}

impl LaneWork for Traced {
    type State = (Tracer, Client);
    type Output = ServeOut;
    fn init(&self, _lane: usize) -> Self::State {
        (Tracer::new(self.epoch), connect(&self.endpoint))
    }
    fn run(&self, (tracer, client): &mut Self::State, op: usize) -> ServeOut {
        let item = &self.mix.items[self.mix.schedule[op]];
        tracer.set_op(op as u64);
        tracer.span("serve.op", |t| {
            // The daemon's first steps, replayed on the client: parse, then
            // canonical print and fingerprint.
            if let Ok(problem) = t.span("sygus.parse", |_| {
                sygus::parser::parse_problem(&item.text, "request")
            }) {
                t.span("sygus.fingerprint", |_| {
                    let canonical = sygus::parser::problem_to_sygus(&problem, "f");
                    (canonical.len(), problem.fingerprint())
                });
            }
            t.span_named(
                |_| request(client, op, item),
                |out| {
                    if out.cached {
                        "server.hit"
                    } else {
                        "server.miss"
                    }
                },
            )
        })
    }
}

fn traced(
    args: &Args,
    mix: &Arc<Mix>,
    ops: usize,
    untraced_wall: f64,
    measured: &mut Measured,
    layers: &mut BTreeMap<String, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let daemon = Daemon::start()?;
    let phase = run_lanes(
        Arc::new(Traced {
            mix: Arc::clone(mix),
            endpoint: daemon.endpoint.clone(),
            epoch: Instant::now(),
        }),
        CLIENTS,
        0..ops,
        None,
        OP_BOX,
        Vec::new(),
    );
    daemon.stop()?;
    for outcome in &phase.outcomes {
        if let Outcome::Done { op, result, .. } = outcome {
            let item = &mix.items[mix.schedule[*op]];
            let failure = match &result.error {
                Some(error) => Some(format!("traced replay: {}: {error}", item.name)),
                None => check(item, &result.verdict).err(),
            };
            if let Some(failure) = failure {
                measured.failures.push(failure);
                measured.wrong += 1;
            }
        }
    }
    let wall = phase.wall.as_secs_f64();
    let lane_wall = wall * CLIENTS as f64;
    let (tracers, _clients): (Vec<Tracer>, Vec<Client>) = phase.states.into_iter().unzip();
    let totals = ledger(&tracers);
    ledger_metrics(layers, &totals, lane_wall);
    notes.extend(ledger_notes(&totals, lane_wall));
    // The replay's client-side parse and fingerprint are extra work, not
    // recorder cost: take their per-lane share out of the traced wall.
    let replay_s = ["sygus.parse", "sygus.fingerprint"]
        .iter()
        .filter_map(|name| totals.get(*name))
        .map(|t| t.busy_s)
        .sum::<f64>()
        / CLIENTS as f64;
    layers.insert(
        "trace.overhead_frac".into(),
        (wall - replay_s - untraced_wall) / untraced_wall,
    );
    notes.push(format!(
        "tracing overhead: traced replay {wall:.4} s, less {replay_s:.4} s per lane of client-side \
         parse and fingerprint, vs untraced {untraced_wall:.4} s over {ops} requests"
    ));
    layers.insert(
        "sygus.parse.calls".into(),
        totals.get("sygus.parse").map_or(0.0, |t| t.calls as f64),
    );
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/serve-mix-seed{}.spans.jsonl",
        args.seed
    ));
    write_spans(&path, &tracers).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
