//! Edge-of-capacity tests for the evented frontend — connection
//! concurrency and the admission-control behaviour under hostile or
//! overload traffic:
//!
//! * hundreds of concurrent keep-alive connections on a handful of loop
//!   threads,
//! * slowloris / idle-connection reaping by the read deadline,
//! * queue-depth load shedding: fast 503 + `Retry-After` while real
//!   work is in flight, with full recovery after the queue drains,
//! * per-peer rate limiting: 429 + `Retry-After` on a surviving
//!   connection,
//! * pipelined bursts with a delayed reader (output buffering).

use benchgen::Family;
use qcir::Gate;
use qhttp::api::AppState;
use qhttp::evented::{EventedConfig, EventedServer};
use qoracle::{RuleBasedOptimizer, SegmentOracle};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn service(workers: usize) -> OptimizationService {
    // The access log writes one `info` line per request to stderr,
    // which the test harness does not capture.
    qobs::set_log_filter("warn").expect("valid log filter");
    OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    )
}

fn sample_qasm() -> String {
    qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], 21))
}

/// Sends one request on an existing connection (keep-alive).
fn send_request(stream: &mut TcpStream, method: &str, target: &str, body: &str) {
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
}

/// Reads one full response; returns (status, raw headers, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let (headers_end, content_length) = loop {
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "connection closed before response completed");
        raw.extend_from_slice(&buf[..n]);
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..pos]).expect("utf-8 headers");
            let cl = head
                .lines()
                .find_map(|l| {
                    l.split_once(':')
                        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                })
                .map(|(_, v)| v.trim().parse::<usize>().expect("content-length"))
                .unwrap_or(0);
            break (pos + 4, cl);
        }
    };
    while raw.len() < headers_end + content_length {
        let n = stream.read(&mut buf).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        raw.extend_from_slice(&buf[..n]);
    }
    let head = std::str::from_utf8(&raw[..headers_end])
        .unwrap()
        .to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body =
        String::from_utf8_lossy(&raw[headers_end..headers_end + content_length]).into_owned();
    (status, head, body)
}

fn roundtrip(stream: &mut TcpStream, method: &str, target: &str, body: &str) -> (u16, String) {
    send_request(stream, method, target, body);
    let (status, _, body) = read_response(stream);
    (status, body)
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        l.split_once(':')
            .filter(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    })
}

/// The acceptance workhorse: with 4 loop threads the evented frontend
/// holds 300 idle keep-alive connections AND serves requests over every
/// one of them — twice, to prove the connections stayed open throughout.
#[test]
fn evented_holds_300_keepalive_connections_on_four_loop_threads() {
    let state = Arc::new(AppState::new(service(4), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            loop_threads: 4,
            dispatch_threads: 4,
            max_conns: 1024,
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut conns: Vec<TcpStream> = (0..300)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    for round in 0..2 {
        for (i, c) in conns.iter_mut().enumerate() {
            let (status, body) = roundtrip(c, "GET", "/healthz", "");
            assert_eq!(status, 200, "round {round} conn {i}: body {body}");
        }
    }
    assert!(
        server.stats().connections_open() >= 300,
        "all 300 connections must be open simultaneously: {}",
        server.stats().connections_open()
    );
    drop(conns);
    server.shutdown();
}

/// 256 clients each holding a keep-alive connection complete a cached
/// optimize round-trip *concurrently* on a 4-worker / 4-loop-thread
/// server — far more open connections than the server has threads.
#[test]
fn evented_serves_256_concurrent_cached_optimize_roundtrips() {
    const CLIENTS: usize = 256;
    let state = Arc::new(AppState::new(service(4), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            loop_threads: 4,
            dispatch_threads: 4,
            max_conns: 1024,
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let qasm = sample_qasm();

    // Prime the cache so every client's POST is a fast hit — the test
    // measures connection concurrency, not oracle throughput.
    let mut prime = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut prime, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200);

    // Every connection is opened BEFORE any request is sent, so all 256
    // are simultaneously live when the requests fly.
    let conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut c| {
                let qasm = &qasm;
                s.spawn(move || {
                    let (status, body) = roundtrip(&mut c, "POST", "/v1/optimize", qasm);
                    assert_eq!(status, 200, "body: {body}");
                    assert!(body.contains("\"cache_hit\":true"), "body: {body}");
                    true
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).count()
    });
    assert_eq!(ok, CLIENTS, "every concurrent client must complete");
    server.shutdown();
}

/// Slowloris and silent-idle connections are both reaped by the read
/// deadline — and reaping them never disturbs a healthy client.
#[test]
fn slowloris_and_idle_connections_are_reaped_by_the_read_deadline() {
    let state = Arc::new(AppState::new(service(1), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            read_deadline: Duration::from_millis(300),
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // The slowloris: a request that never finishes its headers.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"POST /v1/optimize HTTP/1.1\r\nHost: t\r\nContent-Le")
        .unwrap();
    // The freeloader: a connection that never sends a byte.
    let mut idle = TcpStream::connect(addr).unwrap();

    // Both are closed by the server within a small multiple of the
    // deadline (EOF on our side), while a healthy request still works.
    let mut healthy = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut healthy, "GET", "/healthz", "");
    assert_eq!(status, 200);

    for (name, conn) in [("slowloris", &mut slow), ("idle", &mut idle)] {
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        let start = Instant::now();
        let n = conn
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(n, 0, "{name} connection must be closed, not answered");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "{name} reap took {:?}",
            start.elapsed()
        );
    }
    assert!(
        server.stats().deadline_closes() >= 2,
        "both reaps must be counted: {}",
        server.stats().deadline_closes()
    );
    server.shutdown();
}

/// Blocks every oracle call until released (copied from the shared API
/// suite; test crates cannot share a lib).
struct GatedOracle {
    inner: RuleBasedOptimizer,
    released: Arc<(Mutex<bool>, Condvar)>,
}

impl SegmentOracle<Gate> for GatedOracle {
    fn optimize(&self, units: &[Gate], num_qubits: u32) -> Vec<Gate> {
        let (lock, cv) = &*self.released;
        let mut ok = lock.lock().unwrap();
        while !*ok {
            ok = cv.wait(ok).unwrap();
        }
        drop(ok);
        self.inner.optimize(units, num_qubits)
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        self.inner.cost(units)
    }

    fn name(&self) -> &'static str {
        "gated-rule"
    }
}

/// The load-shedding acceptance property: with the queue saturated by
/// in-flight jobs, a work-enqueueing POST is refused 503 + `Retry-After`
/// in well under 50 ms, reads are never shed, and once the queue drains
/// new work is accepted again.
#[test]
fn shed_answers_fast_503_with_retry_after_and_recovers() {
    qobs::set_log_filter("warn").expect("valid log filter");
    let released = Arc::new((Mutex::new(false), Condvar::new()));
    let svc = OptimizationService::single(
        GatedOracle {
            inner: RuleBasedOptimizer::oracle(),
            released: Arc::clone(&released),
        },
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );
    let state = Arc::new(AppState::with_job_cap(svc, 80, 64));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            shed_queue_depth: 2,
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Distinct circuits so nothing coalesces; the gated oracle pins the
    // worker, so the 2nd and 3rd submissions sit in the queue.
    let circuits: Vec<String> = [7u64, 9, 11, 13]
        .iter()
        .map(|&n| qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], n)))
        .collect();
    let mut ids = Vec::new();
    for qasm in &circuits[..3] {
        let mut c = TcpStream::connect(addr).unwrap();
        let (status, body) = roundtrip(&mut c, "POST", "/v1/optimize?wait=false", qasm);
        assert_eq!(status, 202, "body: {body}");
        let id_pos = body.find("\"job_id\":").expect("job_id") + 9;
        ids.push(
            body[id_pos..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>(),
        );
    }

    // The queue is at (or past) the shed threshold: the next enqueueing
    // POST must be refused inline — fast, 503, Retry-After — while the
    // gated jobs are still in flight. (The refusal arrives at the
    // headers-complete pre-check and closes the connection, since the
    // body was never read.)
    let mut c = TcpStream::connect(addr).unwrap();
    let start = Instant::now();
    send_request(&mut c, "POST", "/v1/optimize", &circuits[3]);
    let (status, head, body) = read_response(&mut c);
    let elapsed = start.elapsed();
    assert_eq!(status, 503, "body: {body}");
    assert!(body.contains("overloaded"), "body: {body}");
    assert!(body.contains("shed threshold"), "body: {body}");
    assert!(
        header_value(&head, "retry-after").is_some(),
        "shed 503 must carry Retry-After: {head}"
    );
    assert!(
        header_value(&head, "x-popqc-request-id").is_some(),
        "a refusal answered by the dispatcher bypass must still carry a request id: {head}"
    );
    assert!(
        elapsed < Duration::from_millis(50),
        "shedding must not queue behind in-flight work: {elapsed:?}"
    );

    // Reads are never shed: exactly what an operator needs mid-overload.
    let mut c = TcpStream::connect(addr).unwrap();
    let (status, body) = roundtrip(&mut c, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "body: {body}");
    assert!(
        body.contains("\"requests_shed\":1"),
        "the shed must be counted in /v1/stats: {body}"
    );
    assert!(server.stats().requests_shed() >= 1);

    // The refusal bypasses the dispatcher, but it must NOT bypass the
    // HTTP metrics: the 503 shows up in the per-endpoint counter.
    let mut c = TcpStream::connect(addr).unwrap();
    let (status, body) = roundtrip(&mut c, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains(r#"popqc_http_requests_total{endpoint="/v1/optimize",status="5xx"}"#),
        "inline refusals must be counted in popqc_http_requests_total"
    );

    // Recovery: release the oracle, drain the queue, and the same
    // circuit is accepted.
    *released.0.lock().unwrap() = true;
    released.1.notify_all();
    for id in &ids {
        let mut done = false;
        for _ in 0..600 {
            let mut c = TcpStream::connect(addr).unwrap();
            let (status, body) = roundtrip(&mut c, "GET", &format!("/v1/jobs/{id}"), "");
            assert_eq!(status, 200);
            if body.contains("\"done\":true") {
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(done, "job {id} never completed");
    }
    let mut c = TcpStream::connect(addr).unwrap();
    let (status, body) = roundtrip(&mut c, "POST", "/v1/optimize", &circuits[3]);
    assert_eq!(status, 200, "post-drain submission must succeed: {body}");
    server.shutdown();
}

/// Per-peer rate limiting: a burst past the budget answers 429
/// `rate_limited` + `Retry-After` on a connection that stays open, and
/// the peer is served again once its bucket refills.
#[test]
fn rate_limited_burst_gets_429_and_the_connection_survives() {
    let state = Arc::new(AppState::new(service(1), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            rate_limit: 2.0, // burst budget of 2
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut c = TcpStream::connect(addr).unwrap();
    for i in 0..2 {
        let (status, body) = roundtrip(&mut c, "GET", "/healthz", "");
        assert_eq!(status, 200, "burst request {i}: {body}");
    }
    send_request(&mut c, "GET", "/healthz", "");
    let (status, head, body) = read_response(&mut c);
    assert_eq!(status, 429, "body: {body}");
    assert!(body.contains("rate_limited"), "body: {body}");
    assert!(
        header_value(&head, "x-popqc-request-id").is_some(),
        "a 429 answered inline must still carry a request id: {head}"
    );
    let retry: u64 = header_value(&head, "retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("numeric Retry-After");
    assert!(retry >= 1, "Retry-After must name a real wait: {retry}");

    // The SAME connection is served again after the bucket refills —
    // rate limiting a peer must not cost it its connection.
    std::thread::sleep(Duration::from_millis(700));
    let (status, body) = roundtrip(&mut c, "GET", "/healthz", "");
    assert_eq!(status, 200, "post-refill request: {body}");
    assert!(server.stats().rate_limited() >= 1);
    server.shutdown();
}

/// A refused client must not be invited to upload its body first: a
/// rate-limited peer announcing a body with `Expect: 100-continue` gets
/// its 429 at the headers-complete pre-check — no `100 Continue` interim,
/// no body bytes read — and the connection closes (the unread body makes
/// the framing unusable).
#[test]
fn rate_limited_body_upload_is_refused_before_100_continue() {
    let state = Arc::new(AppState::new(service(1), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            rate_limit: 1.0, // burst budget of 1
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Burn the budget with a cheap request.
    let mut warm = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut warm, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // Announce a large body and wait, as curl does for big uploads: the
    // headers alone must draw the refusal.
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        c,
        "POST /v1/optimize HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n\
         Content-Length: 1000000\r\n\r\n"
    )
    .unwrap();
    let (status, head, body) = read_response(&mut c);
    assert_eq!(status, 429, "body: {body}");
    assert!(body.contains("rate_limited"), "body: {body}");
    assert!(
        !head.contains("100 Continue"),
        "a refused upload must not be invited to proceed: {head}"
    );
    assert!(
        header_value(&head, "retry-after").is_some(),
        "429 must carry Retry-After: {head}"
    );
    assert_eq!(
        header_value(&head, "connection"),
        Some("close"),
        "an early refusal cannot keep the framing-poisoned connection: {head}"
    );
    let mut rest = Vec::new();
    assert_eq!(
        c.read_to_end(&mut rest).unwrap_or(0),
        0,
        "the server must close after the early refusal"
    );
    assert!(server.stats().rate_limited() >= 1);
    server.shutdown();
}

/// An early refusal reaches a client that writes its whole request
/// before it reads, as simple clients do: the server closes lingering
/// (it shuts down its write side, then reads and discards the body until
/// the peer closes), because closing over unread bytes resets the
/// connection, which fails the client's upload before it reads the 429.
/// The body outgrows the loopback socket buffers, so the refusal lands
/// while the upload is still running.
#[test]
fn early_refusal_reaches_a_client_that_sends_its_body_at_once() {
    let state = Arc::new(AppState::new(service(1), 80));
    let mut server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::clone(&state),
        EventedConfig {
            rate_limit: 0.01, // a burst of 1, refilled after 100 s
            ..EventedConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut warm = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut warm, "GET", "/healthz", "");
    assert_eq!(status, 200);

    const BODY: usize = 12 << 20;
    let mut upload =
        format!("POST /v1/optimize HTTP/1.1\r\nHost: t\r\nContent-Length: {BODY}\r\n\r\n")
            .into_bytes();
    upload.resize(upload.len() + BODY, b'x');
    for round in 0..3 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(&upload)
            .unwrap_or_else(|e| panic!("round {round}: upload cut short ({e})"));
        let (status, head, body) = read_response(&mut c);
        assert_eq!(status, 429, "round {round}: {body}");
        assert_eq!(header_value(&head, "connection"), Some("close"), "{head}");
        let mut rest = Vec::new();
        let tail = c.read_to_end(&mut rest);
        assert_eq!(
            tail.ok(),
            Some(0),
            "round {round}: the refusal must end in a clean close"
        );
    }
    assert!(server.stats().rate_limited() >= 3);
    server.shutdown();
}

/// A pipelined burst from a client that delays reading: the responses
/// queue in the connection's output buffer (and the dispatch replay
/// path), arrive complete and in order, and never block other clients.
#[test]
fn pipelined_burst_with_delayed_reader_is_answered_in_full() {
    const BURST: usize = 32;
    let state = Arc::new(AppState::new(service(1), 80));
    let mut server =
        EventedServer::serve("127.0.0.1:0", Arc::clone(&state), EventedConfig::default())
            .expect("bind loopback");
    let addr = server.local_addr();

    let mut c = TcpStream::connect(addr).unwrap();
    let mut burst = Vec::new();
    for _ in 0..BURST {
        burst.extend_from_slice(b"GET /v1/oracles HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    c.write_all(&burst).unwrap();

    // While the burst client is not reading, another client is served —
    // one stuffed connection must not wedge a loop thread.
    std::thread::sleep(Duration::from_millis(200));
    let mut other = TcpStream::connect(addr).unwrap();
    let (status, _) = roundtrip(&mut other, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // Now drain: all BURST responses, complete and well-formed. One
    // socket read may span response boundaries, so parse from a
    // persistent buffer instead of per-response reads.
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let mut parsed = 0usize;
    while parsed < BURST {
        let n = c.read(&mut buf).expect("read burst responses");
        assert!(n > 0, "connection closed after {parsed}/{BURST} responses");
        raw.extend_from_slice(&buf[..n]);
        while let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..pos]).expect("utf-8 headers");
            let cl = header_value(head, "content-length")
                .map(|v| v.parse::<usize>().expect("content-length"))
                .unwrap_or(0);
            if raw.len() < pos + 4 + cl {
                break; // body still in flight
            }
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "pipelined response {parsed}: {head}"
            );
            let body = String::from_utf8_lossy(&raw[pos + 4..pos + 4 + cl]).into_owned();
            assert!(body.contains("rule_based"), "response {parsed}: {body}");
            raw.drain(..pos + 4 + cl);
            parsed += 1;
        }
    }
    server.shutdown();
}
