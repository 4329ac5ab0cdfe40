//! End-to-end daemon tests over real sockets: verdict round-trips,
//! fingerprint-keyed caching, deadline timeouts, framing errors, and a
//! concurrent client burst.

use server::protocol::{read_frame, write_frame};
use server::{
    Bind, Client, Endpoint, ErrorCode, Request, Response, ResponseStatus, Server, ServerConfig,
    StatsSnapshot,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A trivially unrealizable instance: a constants-only grammar cannot
/// equal `x` everywhere. Two CEGIS examples settle it.
const UNREALIZABLE: &str = "\
(set-logic CLIA)
(synth-fun f ((x Int)) Int ((Start Int (0 1))))
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)
";

/// The same instance with different whitespace and a comment: a distinct
/// byte string, but the identical canonical form and fingerprint.
const UNREALIZABLE_RESPACED: &str = "\
; same problem, different bytes
(set-logic CLIA)
(synth-fun f ((x Int)) Int
  ((Start Int (0 1))))
(declare-var x Int)
(constraint   (= (f x) x))
(check-synth)
";

/// A trivially realizable instance: `f = x` is in the grammar.
const REALIZABLE: &str = "\
(set-logic CLIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1))))
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)
";

/// `if_max3` from the LimitedIf family: the maximum of three inputs needs
/// two conditionals and the grammar allows one. With the presolve off, nay
/// runs for seconds on it even in release builds and nope gives up
/// (`unknown`) only after about 100 ms, so a 1 ms deadline always lands
/// mid-race.
const SLOW: &str = "\
(set-logic LIA)
(synth-fun f ((x1 Int) (x2 Int) (x3 Int)) Int
  ((S1 Int (x1 x2 x3 0 1 (+ S1 S1) (ite B1 S0 S0)))
  (S0 Int (x1 x2 x3 0 1 (+ S0 S0)))
  (B1 Bool ((< S0 S0)))))
(declare-var x1 Int)
(declare-var x2 Int)
(declare-var x3 Int)
(constraint (>= (f x1 x2 x3) x1))
(constraint (>= (f x1 x2 x3) x2))
(constraint (>= (f x1 x2 x3) x3))
(constraint (or (= (f x1 x2 x3) x1) (or (= (f x1 x2 x3) x2) (= (f x1 x2 x3) x3))))
(check-synth)
";

/// The current value of an unlabelled metric in a Prometheus exposition.
fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .find(|line| line.split_whitespace().next() == Some(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn start(config: ServerConfig) -> (Endpoint, std::thread::JoinHandle<StatsSnapshot>) {
    let server = Server::bind(config).expect("binding a loopback listener");
    let endpoint = server.endpoint();
    let handle = std::thread::spawn(move || server.run().expect("accept loop"));
    (endpoint, handle)
}

fn shut_down(endpoint: &Endpoint, handle: std::thread::JoinHandle<StatsSnapshot>) -> StatsSnapshot {
    let mut client = Client::connect(endpoint).expect("connecting for shutdown");
    let response = client.shutdown().expect("shutdown request");
    assert_eq!(response.status, ResponseStatus::Ok);
    handle.join().expect("the accept loop exits after shutdown")
}

#[test]
fn solve_round_trips_and_second_request_hits_the_cache() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let first = client.solve("r-1", UNREALIZABLE).unwrap();
    assert_eq!(first.status, ResponseStatus::Ok, "{first:?}");
    assert_eq!(first.verdict.as_deref(), Some("unrealizable"));
    assert!(!first.cached);
    let fingerprint = first
        .fingerprint
        .clone()
        .expect("solves carry fingerprints");

    let second = client.solve("r-2", UNREALIZABLE).unwrap();
    assert_eq!(second.status, ResponseStatus::Ok);
    assert_eq!(second.verdict, first.verdict);
    assert!(second.cached, "the second identical request must hit");
    assert_eq!(second.fingerprint.as_deref(), Some(fingerprint.as_str()));
    assert_eq!(second.id, "r-2", "ids echo verbatim");

    // Different bytes, same canonical form: still a hit.
    let respaced = client.solve("r-3", UNREALIZABLE_RESPACED).unwrap();
    assert!(respaced.cached, "fingerprints key the canonical form");
    assert_eq!(respaced.verdict, first.verdict);

    // A different problem is a different key.
    let other = client.solve("r-4", REALIZABLE).unwrap();
    assert_eq!(other.verdict.as_deref(), Some("realizable"));
    assert!(!other.cached);
    assert_ne!(other.fingerprint, first.fingerprint);

    let stats = shut_down(&endpoint, handle);
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_entries, 2);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.errors, 0);
}

#[test]
fn no_cache_requests_bypass_lookup_and_insertion() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    for id in ["r-1", "r-2"] {
        let response = client
            .request(&Request::solve(id, UNREALIZABLE).with_no_cache())
            .unwrap();
        assert_eq!(response.verdict.as_deref(), Some("unrealizable"));
        assert!(!response.cached, "no_cache must never serve from the cache");
    }
    let stats = shut_down(&endpoint, handle);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_entries, 0);
}

#[test]
fn ping_and_stats_round_trip() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.status, ResponseStatus::Ok);
    assert_eq!(pong.id, "ping");
    let stats = client.stats().unwrap();
    let snapshot = stats.stats.expect("stats responses carry a snapshot");
    assert_eq!(snapshot.workers, 4, "the default pool size");
    assert_eq!(snapshot.requests, 2);
    shut_down(&endpoint, handle);
}

#[test]
fn malformed_frames_get_stable_error_codes() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    // A solve whose problem is not SyGuS-IF: parse-error with line:col.
    let response = client.solve("r-1", "(this is not sygus").unwrap();
    assert_eq!(response.status, ResponseStatus::Error);
    assert_eq!(response.error_code, Some(ErrorCode::ParseError));
    assert!(
        response.error.as_deref().unwrap().contains(':'),
        "{response:?}"
    );

    // Raw socket: non-JSON payload.
    if let Endpoint::Tcp(addr) = &endpoint {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, b"not json at all").unwrap();
        let reply = read_frame(&mut raw, 1 << 20).unwrap().unwrap();
        let json = runner::Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        let response = Response::from_json(&json).unwrap();
        assert_eq!(response.error_code, Some(ErrorCode::MalformedJson));

        // Valid JSON, invalid request shape.
        write_frame(&mut raw, b"{\"op\": \"warp\"}").unwrap();
        let reply = read_frame(&mut raw, 1 << 20).unwrap().unwrap();
        let json = runner::Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        let response = Response::from_json(&json).unwrap();
        assert_eq!(response.error_code, Some(ErrorCode::MalformedRequest));
    } else {
        panic!("the default config binds TCP");
    }
    shut_down(&endpoint, handle);
}

#[test]
fn oversized_frames_are_answered_then_the_connection_closes() {
    let config = ServerConfig {
        max_frame_bytes: 256,
        ..ServerConfig::default()
    };
    let (endpoint, handle) = start(config);
    let Endpoint::Tcp(addr) = &endpoint else {
        panic!("the default config binds TCP")
    };
    let mut raw = TcpStream::connect(addr).unwrap();
    // Declare a 1 KiB payload against the 256-byte ceiling. The daemon
    // answers from the header alone — the payload is never read.
    raw.write_all(&1024u32.to_be_bytes()).unwrap();
    let reply = read_frame(&mut raw, 1 << 20).unwrap().unwrap();
    let json = runner::Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    let response = Response::from_json(&json).unwrap();
    assert_eq!(response.error_code, Some(ErrorCode::FrameTooLarge));
    // The stream is out of sync, so the daemon closes it.
    assert_eq!(read_frame(&mut raw, 1 << 20).unwrap(), None);
    shut_down(&endpoint, handle);
}

#[test]
fn a_tiny_deadline_on_a_slow_instance_returns_timeout_not_a_hang() {
    // A 1 ms deadline on SLOW must cancel both engines mid-run.
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    let mut request = Request::solve("r-slow", SLOW)
        .with_deadline_ms(1)
        .with_no_cache();
    // Force the full race: a hypothetical presolve win would settle the
    // instance before any engine job could observe the deadline.
    request.no_presolve = true;
    let started = Instant::now();
    let response = client.request(&request).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(response.status, ResponseStatus::Timeout, "{response:?}");
    assert_eq!(response.verdict.as_deref(), Some("unknown"));
    // "promptly" means within one engine loop iteration, not a full run.
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");

    // The daemon survives the timeout: it still serves fresh verdicts, and
    // the timed-out unknown was never cached.
    let next = client.solve("r-after", UNREALIZABLE).unwrap();
    assert_eq!(next.verdict.as_deref(), Some("unrealizable"));
    let stats = shut_down(&endpoint, handle);
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.cache_entries, 1, "only the fresh verdict is cached");
    // Exactly one registration genuinely expired: the timed-out solve.
    // The follow-up solve finished early and retired its guard.
    assert_eq!(stats.deadline_trips, 1, "{stats:?}");
}

#[test]
fn a_concurrent_client_burst_never_deadlocks() {
    // 8 clients × 2 solves on a 2-worker pool with presolve off: every
    // race queues both engine jobs behind the others'. The race drivers
    // run on connection threads, never on the pool, so FIFO draining
    // finishes every job — this must complete, not deadlock.
    let config = ServerConfig {
        slots: 2,
        presolve: false,
        ..ServerConfig::default()
    };
    let (endpoint, handle) = start(config);
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("burst connect");
                let verdicts: Vec<_> = [UNREALIZABLE, REALIZABLE]
                    .iter()
                    .enumerate()
                    .map(|(j, problem)| {
                        let id = format!("c{i}-r{j}");
                        let response = client.solve(&id, problem).expect("burst solve");
                        assert_eq!(response.status, ResponseStatus::Ok, "{response:?}");
                        response.verdict.expect("burst solves settle")
                    })
                    .collect();
                verdicts
            })
        })
        .collect();
    for client in clients {
        let verdicts = client.join().expect("burst client thread");
        assert_eq!(verdicts, vec!["unrealizable", "realizable"]);
    }
    // The registry must agree with the drained pool: every gauge back to
    // zero, every solve counted, queue waits recorded for each engine job.
    let mut prober = Client::connect(&endpoint).unwrap();
    let body = prober
        .metrics()
        .unwrap()
        .metrics
        .expect("metrics responses carry the exposition");
    assert_eq!(metric_value(&body, "solver_pool_in_flight"), Some(0.0));
    assert_eq!(metric_value(&body, "solver_pool_queue_depth"), Some(0.0));
    assert_eq!(metric_value(&body, "solver_inflight_requests"), Some(0.0));
    assert_eq!(metric_value(&body, "solver_pool_workers"), Some(2.0));
    let requests = metric_value(&body, "solver_requests_total").unwrap();
    assert!(requests >= 16.0, "16 solves dispatched, saw {requests}");
    let waits = metric_value(&body, "solver_queue_wait_seconds_count").unwrap();
    assert!(waits >= 2.0, "both engines queue per race, saw {waits}");
    let stats = shut_down(&endpoint, handle);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.in_flight, 0, "the pool drains completely");
    assert_eq!(stats.queue_depth, 0);
    // Concurrent solves of the same problem may stampede past the first
    // insert (each then races and re-inserts harmlessly), so the exact
    // hit count is scheduling-dependent — but only 2 entries ever exist.
    assert_eq!(stats.cache_entries, 2, "{stats:?}");
    assert_eq!(stats.cache_hits + stats.cache_misses, 16, "{stats:?}");
}

#[test]
fn shutdown_rejects_new_work_while_draining() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    // The same connection stays open; new solves are refused politely.
    let response = client.solve("late", UNREALIZABLE).unwrap();
    assert_eq!(response.status, ResponseStatus::Error);
    assert_eq!(response.error_code, Some(ErrorCode::ShuttingDown));
    handle.join().expect("the accept loop exits");
}

#[test]
fn traced_solves_return_span_trees_and_every_response_has_a_trace_id() {
    let (endpoint, handle) = start(ServerConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();

    let plain = client.solve("t-0", UNREALIZABLE).unwrap();
    assert!(
        plain.trace_id.is_some(),
        "every response carries a trace id"
    );
    assert!(plain.trace.is_none(), "traces only appear when asked for");

    let mut request = Request::solve("t-1", UNREALIZABLE)
        .with_trace()
        .with_no_cache();
    request.no_presolve = true;
    let traced = client.request(&request).unwrap();
    assert_eq!(traced.status, ResponseStatus::Ok, "{traced:?}");
    let trace = traced.trace.expect("trace: true returns the span tree");
    assert_eq!(
        Some(trace.trace_id.as_str()),
        traced.trace_id.as_deref(),
        "the span tree and the response carry the same id"
    );
    let structure = trace.structure();
    assert_eq!(structure[0], (0, "solve".to_string()));
    assert_eq!(structure[1], (1, "parse".to_string()));
    assert!(
        structure.iter().any(|(_, phase)| phase == "race"),
        "a full race leaves a race span: {structure:?}"
    );
    assert!(
        structure.contains(&(3, "queue".to_string()))
            && structure.contains(&(3, "run".to_string())),
        "engine spans nest queue and run: {structure:?}"
    );

    // A cache hit never reaches presolve or the race: its trace is the
    // minimal parse + lookup shape.
    client.solve("t-2", UNREALIZABLE).unwrap();
    let hit = client
        .request(&Request::solve("t-3", UNREALIZABLE).with_trace())
        .unwrap();
    assert!(hit.cached, "{hit:?}");
    let hit_trace = hit.trace.expect("hits are traced too");
    assert_eq!(
        hit_trace.structure(),
        vec![
            (0, "solve".to_string()),
            (1, "parse".to_string()),
            (1, "cache".to_string()),
        ]
    );
    shut_down(&endpoint, handle);
}

#[test]
fn the_scrape_listener_serves_every_documented_family() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("binding with a scrape listener");
    let endpoint = server.endpoint();
    let scrape = server.metrics_endpoint().expect("the scrape socket bound");
    let handle = std::thread::spawn(move || server.run().expect("accept loop"));

    // Traffic first, so counters and histograms carry real values.
    let mut client = Client::connect(&endpoint).unwrap();
    client.solve("m-1", UNREALIZABLE).unwrap();
    client.solve("m-2", UNREALIZABLE).unwrap();

    let body = scrape_metrics(scrape);
    let body = body.as_str();
    for name in obs::names::ALL {
        assert!(
            body.contains(&format!("# TYPE {name} ")),
            "family {name} missing from the scrape:\n{body}"
        );
    }
    assert_eq!(metric_value(body, "solver_requests_total"), Some(2.0));
    assert_eq!(metric_value(body, "solver_cache_hits_total"), Some(1.0));
    assert_eq!(metric_value(body, "solver_cache_misses_total"), Some(1.0));
    assert_eq!(metric_value(body, "solver_cache_entries"), Some(1.0));
    assert_eq!(metric_value(body, "solver_pool_workers"), Some(4.0));
    let observed = metric_value(body, "solver_request_seconds_count").unwrap();
    assert_eq!(observed, 2.0, "both solves land in the request histogram");
    assert_eq!(
        metric_value(body, "solver_cancel_latency_seconds_count"),
        Some(0.0)
    );

    // A solve whose deadline cancels the race lands in the cancel-latency
    // histogram.
    let mut request = Request::solve("m-slow", SLOW)
        .with_deadline_ms(1)
        .with_no_cache();
    request.no_presolve = true;
    let response = client.request(&request).unwrap();
    assert_eq!(response.status, ResponseStatus::Timeout, "{response:?}");
    let body = scrape_metrics(scrape);
    assert_eq!(
        metric_value(&body, "solver_cancel_latency_seconds_count"),
        Some(1.0)
    );
    shut_down(&endpoint, handle);
}

/// One `GET /metrics` against the scrape listener; returns the body.
fn scrape_metrics(scrape: std::net::SocketAddr) -> String {
    let mut raw = TcpStream::connect(scrape).expect("connecting to the scrape port");
    raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    use std::io::Read as _;
    raw.read_to_string(&mut reply).expect("one full response");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(
        reply.contains("Content-Type: text/plain; version=0.0.4"),
        "{reply}"
    );
    reply
        .split_once("\r\n\r\n")
        .expect("headers end with a blank line")
        .1
        .to_string()
}

#[cfg(unix)]
#[test]
fn unix_sockets_serve_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("daemon.sock");
    let config = ServerConfig {
        bind: Bind::Unix(path.clone()),
        ..ServerConfig::default()
    };
    let (endpoint, handle) = start(config);
    let mut client = Client::connect(&endpoint).unwrap();
    let response = client.solve("u-1", UNREALIZABLE).unwrap();
    assert_eq!(response.verdict.as_deref(), Some("unrealizable"));
    shut_down(&endpoint, handle);
    assert!(!path.exists(), "the socket file is removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
