//! The daemon: socket accept loop, admission control, deadline
//! enforcement, and the warm solve path.
//!
//! One [`Server`] owns
//!
//! * a persistent [`WarmPool`] of engine workers — engines run warm
//!   across requests instead of cold-starting a process per verdict,
//! * a bounded, collision-safe [`VerdictCache`] keyed by
//!   [`sygus::Problem::fingerprint`],
//! * a single deadline-monitor thread that trips each request's
//!   [`Cancel`] token when its deadline expires, and
//! * one handler thread per client connection, each multiplexing
//!   requests sequentially over its socket.
//!
//! A solve request flows: decode frame → parse problem → canonical
//! print and fingerprint → cache lookup (byte-identical canonical form
//! required) → admission check against the pool's in-flight bound →
//! race on the warm pool via [`Portfolio::race_on_pool`] with the
//! request's cancel token registered at `now + deadline` → definitive
//! verdicts are inserted into the cache and served; a deadline expiry
//! cancels both engines cooperatively and returns a `timeout` response
//! — the connection is never left hanging.

use crate::cache::{CacheStats, CachedVerdict, VerdictCache};
use crate::protocol::{
    fingerprint_hex, read_frame, write_frame, ErrorCode, FrameError, Op, Request, Response,
    ResponseStatus, StatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
use obs::names;
use portfolio::{Portfolio, SolveVerdict};
use runner::{measure, Cancel, DeadlineTimer, Json, WarmPool};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A TCP address in `host:port` form; port 0 picks a free port.
    Tcp(String),
    /// A Unix-domain socket path; a stale socket file is removed first.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A connectable endpoint: what [`Server::endpoint`] reports after
/// binding (the TCP variant carries the *resolved* address, so binding
/// port 0 yields the actual port).
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A resolved TCP address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// The daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Where to listen.
    pub bind: Bind,
    /// Warm engine workers. A race consumes two (one per engine), so
    /// `slots / 2` races run truly concurrently; further races queue
    /// FIFO. Default 4.
    pub slots: usize,
    /// Admission bound: a solve request arriving while this many engine
    /// jobs are in flight (queued + running) is shed with an
    /// `overloaded` error instead of growing the queue without bound.
    /// Default 64.
    pub max_in_flight: usize,
    /// Verdict-cache capacity (entries); 0 disables caching. Default 4096.
    pub cache_capacity: usize,
    /// Deadline applied to solve requests that do not carry their own
    /// `deadline_ms`. Default 600 s, matching
    /// `bench::DEFAULT_SOLVE_TIMEOUT`.
    pub default_deadline: Duration,
    /// Ceiling on one frame's payload size.
    pub max_frame_bytes: usize,
    /// Whether races run the static presolve stage (requests can opt out
    /// individually via `no_presolve`). Default true.
    pub presolve: bool,
    /// When set, a plain-HTTP scrape listener binds this TCP address
    /// (`host:port`, port 0 picks a free port) and answers every GET with
    /// the metrics registry in Prometheus text format. Default off.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".into()),
            slots: 4,
            max_in_flight: 64,
            cache_capacity: 4096,
            default_deadline: Duration::from_secs(600),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            presolve: true,
            metrics_addr: None,
        }
    }
}

/// The daemon's instruments, all registered in one per-instance
/// [`obs::Registry`] (per-instance rather than [`obs::global`] so
/// concurrent daemons — e.g. parallel tests — never see each other's
/// counters). Cache counters are mirrors: the [`VerdictCache`] owns its
/// statistics, and [`Metrics::sync_cache`] copies them into the
/// registered handles before any exposition.
struct Metrics {
    registry: obs::Registry,
    requests: obs::Counter,
    errors: obs::Counter,
    timeouts: obs::Counter,
    shed: obs::Counter,
    inflight: obs::Gauge,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    cache_collisions: obs::Counter,
    cache_evictions: obs::Counter,
    cache_insertions: obs::Counter,
    cache_entries: obs::Gauge,
    request_seconds: obs::Histogram,
    parse_seconds: obs::Histogram,
    presolve_seconds: obs::Histogram,
    race_seconds: obs::Histogram,
    cancel_latency_seconds: obs::Histogram,
}

impl Metrics {
    /// Creates every instrument, wiring in the handles owned by the pool
    /// and the deadline timer so the registry exposes them too.
    fn new(pool: &WarmPool, deadlines: &DeadlineTimer) -> Metrics {
        let registry = obs::Registry::new();
        let metrics = Metrics {
            requests: registry.counter(names::REQUESTS_TOTAL, "Total requests dispatched"),
            errors: registry.counter(names::ERRORS_TOTAL, "Requests answered with an error"),
            timeouts: registry.counter(names::TIMEOUTS_TOTAL, "Solve requests past their deadline"),
            shed: registry.counter(
                names::SHED_TOTAL,
                "Solve requests shed by admission control",
            ),
            inflight: registry.gauge(names::INFLIGHT_REQUESTS, "Solve requests being served"),
            cache_hits: registry.counter(names::CACHE_HITS_TOTAL, "Verdict-cache hits"),
            cache_misses: registry.counter(names::CACHE_MISSES_TOTAL, "Verdict-cache misses"),
            cache_collisions: registry.counter(
                names::CACHE_COLLISIONS_TOTAL,
                "Fingerprint collisions served as misses",
            ),
            cache_evictions: registry
                .counter(names::CACHE_EVICTIONS_TOTAL, "Verdict-cache LRU evictions"),
            cache_insertions: registry
                .counter(names::CACHE_INSERTIONS_TOTAL, "Verdict-cache insertions"),
            cache_entries: registry.gauge(names::CACHE_ENTRIES, "Verdict-cache resident entries"),
            request_seconds: registry.histogram(names::REQUEST_SECONDS, "End-to-end solve latency"),
            parse_seconds: registry.histogram(names::PARSE_SECONDS, "SyGuS-IF parse latency"),
            presolve_seconds: registry
                .histogram(names::PRESOLVE_SECONDS, "Static-presolve latency"),
            race_seconds: registry.histogram(
                names::RACE_SECONDS,
                "Engine-race latency (excluding presolve)",
            ),
            cancel_latency_seconds: registry.histogram(
                names::CANCEL_LATENCY_SECONDS,
                "Deadline to race return, for races the deadline cancelled",
            ),
            registry,
        };
        metrics.registry.register_counter(
            names::DEADLINE_TRIPS_TOTAL,
            "Deadline-timer cancellations fired",
            deadlines.trip_counter(),
        );
        metrics.registry.register_gauge(
            names::POOL_IN_FLIGHT,
            "Warm-pool jobs admitted and not yet finished",
            pool.in_flight_gauge(),
        );
        metrics.registry.register_gauge(
            names::POOL_QUEUE_DEPTH,
            "Warm-pool jobs queued and not yet started",
            pool.queue_depth_gauge(),
        );
        let workers = metrics
            .registry
            .gauge(names::POOL_WORKERS, "Warm-pool worker threads");
        workers.set(pool.workers() as i64);
        metrics.registry.register_histogram(
            names::QUEUE_WAIT_SECONDS,
            "Warm-pool queue wait before an engine job starts",
            pool.queue_wait_hist(),
        );
        metrics
    }

    /// Copies the cache-owned statistics into the mirror handles.
    fn sync_cache(&self, stats: CacheStats, entries: u64) {
        self.cache_hits.set(stats.hits);
        self.cache_misses.set(stats.misses);
        self.cache_collisions.set(stats.collisions);
        self.cache_evictions.set(stats.evictions);
        self.cache_insertions.set(stats.insertions);
        self.cache_entries.set(entries as i64);
    }
}

/// State shared between the accept loop and every connection handler.
struct Shared {
    pool: WarmPool,
    cache: Mutex<VerdictCache>,
    metrics: Metrics,
    deadlines: DeadlineTimer,
    shutdown: AtomicBool,
    endpoint: Endpoint,
    metrics_endpoint: Option<SocketAddr>,
    max_in_flight: usize,
    default_deadline: Duration,
    max_frame_bytes: usize,
    presolve: bool,
}

impl Shared {
    /// Wakes the accept loop by connecting to the daemon's own endpoint
    /// (the accepted connection immediately sees EOF and is dropped).
    fn wake_accept_loop(&self) {
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (cache_stats, cache_entries) = {
            let cache = self.cache.lock().unwrap();
            (cache.stats(), cache.len() as u64)
        };
        self.metrics.sync_cache(cache_stats, cache_entries);
        let queue_wait = self.pool.queue_wait_hist().snapshot();
        StatsSnapshot {
            requests: self.metrics.requests.get(),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_collisions: cache_stats.collisions,
            cache_evictions: cache_stats.evictions,
            cache_insertions: cache_stats.insertions,
            cache_entries,
            timeouts: self.metrics.timeouts.get(),
            deadline_trips: self.deadlines.trip_counter().get(),
            errors: self.metrics.errors.get(),
            shed: self.metrics.shed.get(),
            in_flight: self.pool.in_flight() as u64,
            queue_depth: self.pool.queue_depth() as u64,
            workers: self.pool.workers() as u64,
            queue_wait_p50_ms: queue_wait.quantile_millis(0.50),
            queue_wait_p99_ms: queue_wait.quantile_millis(0.99),
        }
    }

    /// The full registry in Prometheus text format, cache mirrors synced.
    fn render_metrics(&self) -> String {
        let (cache_stats, cache_entries) = {
            let cache = self.cache.lock().unwrap();
            (cache.stats(), cache.len() as u64)
        };
        self.metrics.sync_cache(cache_stats, cache_entries);
        self.metrics.registry.render()
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The warm-engine daemon; see the [module docs](self).
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket and spins up the warm pool and the
    /// deadline monitor. The daemon serves nothing until [`Server::run`].
    ///
    /// # Errors
    /// Propagates socket bind errors (address in use, bad address, …).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let (listener, endpoint) = match &config.bind {
            Bind::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let endpoint = Endpoint::Tcp(listener.local_addr()?);
                (Listener::Tcp(listener), endpoint)
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a crashed daemon would fail the
                // bind; remove it. (A *live* daemon also leaves a file —
                // callers wanting exclusivity should pick unique paths.)
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (Listener::Unix(listener), Endpoint::Unix(path.clone()))
            }
        };
        let scrape_listener = match &config.metrics_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let pool = WarmPool::new(config.slots);
        let deadlines = DeadlineTimer::new();
        let metrics = Metrics::new(&pool, &deadlines);
        let shared = Arc::new(Shared {
            pool,
            cache: Mutex::new(VerdictCache::new(config.cache_capacity)),
            metrics,
            deadlines,
            shutdown: AtomicBool::new(false),
            endpoint,
            metrics_endpoint: scrape_listener.as_ref().and_then(|l| l.local_addr().ok()),
            max_in_flight: config.max_in_flight,
            default_deadline: config.default_deadline,
            max_frame_bytes: config.max_frame_bytes,
            presolve: config.presolve,
        });
        if let Some(listener) = scrape_listener {
            spawn_scrape_listener(listener, Arc::clone(&shared));
        }
        Ok(Server { listener, shared })
    }

    /// The endpoint clients connect to (with the resolved TCP port).
    pub fn endpoint(&self) -> Endpoint {
        self.shared.endpoint.clone()
    }

    /// The resolved address of the HTTP scrape listener, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_endpoint(&self) -> Option<SocketAddr> {
        self.shared.metrics_endpoint
    }

    /// Serves connections until a `shutdown` request arrives, then
    /// returns the final counters. Each connection gets its own handler
    /// thread; handlers of connections still open at shutdown keep
    /// serving in-flight requests and exit when their client disconnects.
    ///
    /// # Errors
    /// Propagates fatal accept-loop errors (per-connection I/O errors
    /// only close that connection).
    pub fn run(self) -> io::Result<StatsSnapshot> {
        let shared = self.shared;
        match self.listener {
            Listener::Tcp(listener) => {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A frame is written as header + payload: without
                    // nodelay, Nagle holds the payload for the delayed
                    // ACK and every response eats ~40ms on loopback.
                    let _ = stream.set_nodelay(true);
                    spawn_handler(stream, Arc::clone(&shared));
                }
            }
            #[cfg(unix)]
            Listener::Unix(listener) => {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    spawn_handler(stream, Arc::clone(&shared));
                }
                if let Endpoint::Unix(path) = &shared.endpoint {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Ok(shared.snapshot())
    }
}

/// The plain-HTTP scrape listener: one detached thread polling a
/// non-blocking accept loop (50 ms idle tick, so it notices daemon
/// shutdown promptly), answering every GET with the full registry in
/// Prometheus text exposition format and closing the connection. The
/// request itself is read and discarded — every path scrapes the same
/// document, which is all Prometheus needs.
fn spawn_scrape_listener(listener: TcpListener, shared: Arc<Shared>) {
    let _ = std::thread::Builder::new()
        .name("metrics-scrape".into())
        .spawn(move || loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    // Drain (up to) one request's worth of header bytes so
                    // the peer's send buffer is consumed before we answer.
                    let mut discard = [0u8; 4096];
                    let _ = stream.read(&mut discard);
                    let body = shared.render_metrics();
                    let response = format!(
                        "HTTP/1.1 200 OK\r\n\
                         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                         Content-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    );
                    let _ = stream.write_all(response.as_bytes());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        });
}

fn spawn_handler<S: Read + Write + Send + 'static>(stream: S, shared: Arc<Shared>) {
    // Handler threads are detached: they exit on client EOF, and at
    // process exit. `run` does not join them — a handler blocked on a
    // silent client must not wedge shutdown.
    let _ = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || handle_connection(stream, &shared));
}

fn handle_connection<S: Read + Write>(mut stream: S, shared: &Arc<Shared>) {
    loop {
        match read_frame(&mut stream, shared.max_frame_bytes) {
            Ok(None) => return,
            Ok(Some(payload)) => {
                let response = dispatch(&payload, shared);
                let text = response.to_json().to_string_pretty();
                let written = write_frame(&mut stream, text.as_bytes());
                // Wake the accept loop only after the response frame is
                // on the wire: a `shutdown` requester must see its ack
                // before the daemon process can exit.
                if shared.shutdown.load(Ordering::Acquire) {
                    shared.wake_accept_loop();
                }
                if written.is_err() {
                    return;
                }
            }
            Err(FrameError::TooLarge(len)) => {
                // The oversized payload was never read, so the stream
                // cannot be resynchronized: answer and close.
                shared.metrics.errors.inc();
                let response = Response::error(
                    "",
                    ErrorCode::FrameTooLarge,
                    format!(
                        "frame of {len} bytes exceeds the {} byte ceiling",
                        shared.max_frame_bytes
                    ),
                );
                let text = response.to_json().to_string_pretty();
                let _ = write_frame(&mut stream, text.as_bytes());
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

fn dispatch(payload: &[u8], shared: &Arc<Shared>) -> Response {
    // Every request gets a trace id, stamped on the response at the
    // single exit point below so any answer — including malformed-input
    // errors — can be correlated with server-side telemetry.
    let trace_id = obs::fresh_trace_id();
    let mut response = dispatch_inner(payload, shared, &trace_id);
    response.trace_id = Some(trace_id);
    response
}

fn dispatch_inner(payload: &[u8], shared: &Arc<Shared>, trace_id: &str) -> Response {
    shared.metrics.requests.inc();
    let error = |code, detail: String| {
        shared.metrics.errors.inc();
        Response::error("", code, detail)
    };
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(e) => {
            return error(
                ErrorCode::MalformedJson,
                format!("payload is not UTF-8: {e}"),
            )
        }
    };
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(e) => return error(ErrorCode::MalformedJson, e.to_string()),
    };
    let request = match Request::from_json(&json) {
        Ok(request) => request,
        Err(e) => return error(ErrorCode::MalformedRequest, e),
    };
    match request.op {
        Op::Ping => Response::ok(request.id),
        Op::Stats => {
            let mut response = Response::ok(request.id);
            response.stats = Some(shared.snapshot());
            response
        }
        Op::Metrics => {
            let mut response = Response::ok(request.id);
            response.metrics = Some(shared.render_metrics());
            response
        }
        Op::Shutdown => {
            // The connection loop wakes the accept loop *after* writing
            // this ack, so the requester always receives it.
            shared.shutdown.store(true, Ordering::Release);
            Response::ok(request.id)
        }
        Op::Solve => {
            let started = Instant::now();
            shared.metrics.inflight.inc();
            let response = handle_solve(request, shared, trace_id);
            shared.metrics.inflight.dec();
            shared.metrics.request_seconds.observe(started.elapsed());
            response
        }
    }
}

fn handle_solve(request: Request, shared: &Arc<Shared>, trace_id: &str) -> Response {
    let started = Instant::now();
    let id = request.id.clone();
    let fail = |code, detail: String| {
        shared.metrics.errors.inc();
        Response::error(id.clone(), code, detail)
    };
    if shared.shutdown.load(Ordering::Acquire) {
        return fail(
            ErrorCode::ShuttingDown,
            "the daemon is shutting down".into(),
        );
    }
    let text = request.problem.as_deref().expect("validated by from_json");
    let (parsed, parse_elapsed) = measure(|| sygus::parser::parse_problem(text, "request"));
    shared.metrics.parse_seconds.observe(parse_elapsed);
    let parse_millis = parse_elapsed.as_secs_f64() * 1000.0;
    let problem = match parsed {
        Ok(problem) => problem,
        Err(sygus::SygusError::ParseError(p)) => {
            return fail(
                ErrorCode::ParseError,
                format!("{}:{}: {}", p.line, p.col, p.msg),
            )
        }
        Err(other) => return fail(ErrorCode::ParseError, other.to_string()),
    };
    let canonical = sygus::parser::problem_to_sygus(&problem, "f");
    let fingerprint = problem.fingerprint();

    let mut cache_millis = None;
    if !request.no_cache {
        let (hit, cache_elapsed) =
            measure(|| shared.cache.lock().unwrap().lookup(fingerprint, &canonical));
        cache_millis = Some(cache_elapsed.as_secs_f64() * 1000.0);
        if let Some(cached) = hit {
            let mut response = Response::ok(id);
            response.verdict = Some(cached.verdict);
            response.winner = cached.winner;
            response.cached = true;
            response.fingerprint = Some(fingerprint_hex(fingerprint));
            response.millis = started.elapsed().as_secs_f64() * 1000.0;
            if request.trace {
                // A hit never reaches presolve or the race: the trace is
                // just parse + the cache lookup under the root.
                let mut trace = obs::Trace::new(trace_id);
                let us = |millis: f64| (millis * 1000.0).max(0.0) as u64;
                let parse_us = us(parse_millis);
                let cache_us = us(cache_millis.unwrap_or(0.0));
                trace.push(
                    obs::trace::phase::SOLVE,
                    0,
                    0,
                    parse_us + cache_us,
                    "cache hit",
                );
                trace.push(obs::trace::phase::PARSE, 1, 0, parse_us, "");
                trace.push(obs::trace::phase::CACHE, 1, parse_us, cache_us, "hit");
                response.trace = Some(trace);
            }
            return response;
        }
    }

    // Admission control: shed rather than queue without bound.
    if shared.pool.in_flight() >= shared.max_in_flight {
        shared.metrics.shed.inc();
        shared.metrics.errors.inc();
        return Response::error(
            id,
            ErrorCode::Overloaded,
            format!(
                "{} engine jobs in flight (bound {})",
                shared.pool.in_flight(),
                shared.max_in_flight
            ),
        );
    }

    let deadline = request
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.default_deadline);
    let cancel = Cancel::new();
    // The guard is held across the race: a request that finishes early
    // retires its registration, so only genuine expiries count as trips.
    let remaining = deadline.saturating_sub(started.elapsed());
    let deadline_guard = shared.deadlines.register(&cancel, remaining);

    let portfolio = Portfolio::new().with_presolve(shared.presolve && !request.no_presolve);
    let report = portfolio.race_on_pool(&problem, &shared.pool, &cancel);
    drop(deadline_guard);
    let elapsed = started.elapsed();
    let millis = elapsed.as_secs_f64() * 1000.0;

    if let Some(presolve) = &report.presolve {
        shared
            .metrics
            .presolve_seconds
            .observe_millis(presolve.millis);
    }
    if report.winner != Some("presolve") {
        shared
            .metrics
            .race_seconds
            .observe_millis(report.wall_millis);
    }
    let trace = request
        .trace
        .then(|| report.trace_with(trace_id, parse_millis, cache_millis));

    if report.verdict.is_definitive() {
        if !request.no_cache {
            shared.cache.lock().unwrap().insert(
                fingerprint,
                canonical,
                CachedVerdict {
                    verdict: report.verdict.name().into(),
                    winner: report.winner.map(str::to_string),
                    solve_millis: report.wall_millis,
                },
            );
        }
        let mut response = Response::ok(id);
        response.verdict = Some(report.verdict.name().into());
        response.winner = report.winner.map(str::to_string);
        response.fingerprint = Some(fingerprint_hex(fingerprint));
        response.millis = millis;
        response.trace = trace;
        return response;
    }

    // Not definitive. A tripped token means the deadline timer fired
    // (winners only trip the token alongside a definitive verdict).
    if cancel.is_cancelled() {
        shared.metrics.timeouts.inc();
        shared
            .metrics
            .cancel_latency_seconds
            .observe(elapsed.saturating_sub(deadline));
        let mut response = Response::ok(id);
        response.status = ResponseStatus::Timeout;
        response.verdict = Some(SolveVerdict::Unknown.name().into());
        response.fingerprint = Some(fingerprint_hex(fingerprint));
        response.millis = millis;
        response.trace = trace;
        return response;
    }

    // A crashed engine with no verdict is an internal error; a clean
    // double-unknown is a genuine (budget-independent) `unknown`.
    if report.nay.status != runner::JobStatus::Ok || report.nope.status != runner::JobStatus::Ok {
        return fail(
            ErrorCode::Internal,
            format!(
                "engine jobs ended {} / {}",
                report.nay.status.as_str(),
                report.nope.status.as_str()
            ),
        );
    }
    let mut response = Response::ok(id);
    response.verdict = Some(SolveVerdict::Unknown.name().into());
    response.fingerprint = Some(fingerprint_hex(fingerprint));
    response.millis = millis;
    response.trace = trace;
    response
}
