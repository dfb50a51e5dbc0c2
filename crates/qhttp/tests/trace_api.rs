//! Loopback tests for the tracing surface: a real server on an ephemeral
//! port, driven over raw `TcpStream`s, proving the PR's acceptance
//! properties end to end — `?trace=1` force-samples and echoes the trace
//! id, `GET /v1/traces/{id}` returns a causally-linked span tree whose
//! spans nest inside the request wall time, the Chrome export parses,
//! and client-supplied request ids are honored (sanitized) or replaced.
//!
//! The trace ring is process-global (like the metrics registry), which is
//! why these tests live in their own integration binary: only forced
//! traces with process-unique ids are asserted on, so tests within this
//! binary can run in parallel.

use benchgen::Family;
use qhttp::api::AppState;
use qhttp::evented::{EventedConfig, EventedServer};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server() -> EventedServer {
    // The access log writes one `info` line per request to stderr,
    // which the test harness does not capture.
    qobs::set_log_filter("warn").expect("valid log filter");
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 2,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 16,
        },
    );
    let state = Arc::new(AppState::new(svc, 80));
    EventedServer::serve("127.0.0.1:0", state, EventedConfig::default()).expect("bind loopback")
}

fn sample_qasm(seed: u64) -> String {
    qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], seed))
}

/// One-shot request with optional extra headers; returns
/// (status, headers, body).
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let pos = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body split");
    let head = std::str::from_utf8(&raw[..pos]).expect("utf-8 headers");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = String::from_utf8_lossy(&raw[pos + 4..]).into_owned();
    (status, headers, body)
}

fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    request_with_headers(addr, method, target, "", body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// `GET /v1/traces/{id}`, polled until the trace is kept: the evented
/// frontend finishes a trace only after its response has flushed, so a
/// client may read the response before the trace lands. Returns the body.
fn fetch_trace(addr: SocketAddr, trace_id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/traces/{trace_id}"), "");
        if status == 200 {
            return body;
        }
        assert_eq!(status, 404, "body: {body}");
        assert!(Instant::now() < deadline, "trace {trace_id} was never kept");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn parse_report(body: &str) -> qapi::TraceReport {
    let doc = serde_json::from_str(body).expect("trace report JSON");
    qapi::TraceReport::from_json(&doc).expect("trace report DTO")
}

/// The tentpole acceptance property: `?trace=1` forces the sample, the
/// response echoes the id, and the captured trace is one causally-linked
/// tree — root → dispatch → engine → oracle calls — whose spans all nest
/// inside the measured request wall time.
#[test]
fn forced_optimize_trace_returns_a_causal_tree_within_wall_time() {
    let server = start_server();
    let addr = server.local_addr();

    let started = Instant::now();
    let (status, headers, body) = request(addr, "POST", "/v1/optimize?trace=1", &sample_qasm(41));
    let wall_nanos = started.elapsed().as_nanos() as u64;
    assert_eq!(status, 200, "body: {body}");
    let trace_id = header(&headers, "x-popqc-trace-id")
        .expect("?trace=1 must echo x-popqc-trace-id")
        .to_string();
    assert_eq!(trace_id.len(), 16, "canonical 16-hex id: {trace_id}");

    let report = parse_report(&fetch_trace(addr, &trace_id));
    assert_eq!(report.trace_id, trace_id);
    assert_eq!(report.status, 200);
    assert_eq!(report.sampled_because, "forced");

    // Exactly one root (id 1, parent 0, name "request"), and every other
    // span's parent exists — the tree is causally linked, no orphans.
    let root = &report.spans[0];
    assert_eq!(
        (root.id, root.parent, root.name.as_str()),
        (1, 0, "request")
    );
    let ids: std::collections::HashSet<u64> = report.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), report.spans.len(), "span ids must be unique");
    for span in &report.spans[1..] {
        assert!(
            ids.contains(&span.parent),
            "span `{}` (id {}) has unknown parent {}",
            span.name,
            span.id,
            span.parent
        );
        assert_ne!(span.parent, span.id, "a span cannot parent itself");
    }

    // The layers all contributed: queue wait, engine, at least one
    // oracle call and one round under the engine span.
    let find = |name: &str| report.spans.iter().filter(|s| s.name == name).count();
    assert!(find("job_queue_wait") >= 1, "spans: {:?}", report.spans);
    assert_eq!(find("engine"), 1, "spans: {:?}", report.spans);
    assert!(find("oracle_call") >= 1, "spans: {:?}", report.spans);
    assert!(find("round") >= 1, "spans: {:?}", report.spans);
    let engine_id = report.spans.iter().find(|s| s.name == "engine").unwrap().id;
    assert!(
        report
            .spans
            .iter()
            .filter(|s| s.name == "oracle_call")
            .all(|s| {
                // Oracle calls hang off the engine span directly or under
                // a round/parallel-op descendant of it.
                let mut parent = s.parent;
                for _ in 0..10 {
                    if parent == engine_id {
                        return true;
                    }
                    match report.spans.iter().find(|p| p.id == parent) {
                        Some(p) => parent = p.parent,
                        None => return false,
                    }
                }
                false
            }),
        "oracle calls must descend from the engine span: {:?}",
        report.spans
    );

    // Timing sanity: every span nests inside the trace, and the trace
    // inside the measured wall time.
    assert!(report.duration_nanos <= wall_nanos);
    for span in &report.spans {
        assert!(
            span.start_nanos + span.duration_nanos <= report.duration_nanos,
            "span `{}` [{} + {}] escapes the trace envelope {}",
            span.name,
            span.start_nanos,
            span.duration_nanos,
            report.duration_nanos
        );
    }
    // The category split is attributed time, so each bucket is bounded
    // by the trace duration (oracle calls are serial at width 1 here).
    for (label, nanos) in [
        ("queue", report.queue_nanos),
        ("engine", report.engine_nanos),
        ("store", report.store_nanos),
    ] {
        assert!(
            nanos <= report.duration_nanos,
            "{label} split {nanos} exceeds trace duration {}",
            report.duration_nanos
        );
    }
    assert!(report.engine_nanos > 0, "engine time must be attributed");
    assert!(report.oracle_nanos > 0, "oracle time must be attributed");
}

/// The index lists the forced trace, and the Chrome export parses as
/// `trace_event` JSON with one complete event per span.
#[test]
fn trace_index_and_chrome_export_cover_the_kept_trace() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, headers, body) =
        request(addr, "POST", "/v1/optimize?trace=true", &sample_qasm(43));
    assert_eq!(status, 200, "body: {body}");
    let trace_id = header(&headers, "x-popqc-trace-id")
        .expect("trace id header")
        .to_string();
    let report = parse_report(&fetch_trace(addr, &trace_id));

    let (status, _, body) = request(addr, "GET", "/v1/traces?limit=1024", "");
    assert_eq!(status, 200, "body: {body}");
    let doc = serde_json::from_str(&body).expect("index JSON");
    let index = qapi::TraceIndex::from_json(&doc).expect("index DTO");
    let summary = index
        .traces
        .iter()
        .find(|t| t.trace_id == trace_id)
        .expect("forced trace must be listed in the index");
    assert_eq!(summary.status, 200);
    assert_eq!(summary.sampled_because, "forced");
    assert!(summary.span_count >= 3);

    let (status, _, chrome) = request(
        addr,
        "GET",
        &format!("/v1/traces/{trace_id}?format=chrome"),
        "",
    );
    assert_eq!(status, 200, "body: {chrome}");
    let doc = serde_json::from_str(&chrome).expect("chrome export must parse as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), report.spans.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(event.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(event.get("dur").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    // Unknown ids (and unknown formats) answer clean errors.
    let (status, _, _) = request(addr, "GET", "/v1/traces/ffffffffffffffff", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(
        addr,
        "GET",
        &format!("/v1/traces/{trace_id}?format=jaeger"),
        "",
    );
    assert_eq!(status, 400);
}

/// Satellite property: a client-supplied `x-popqc-request-id` is echoed
/// back (it names the request in the access log and any kept trace),
/// while malformed or oversized ids are replaced with minted ones.
#[test]
fn client_request_ids_are_honored_sanitized_and_capped() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, headers, _) = request_with_headers(
        addr,
        "GET",
        "/healthz",
        "x-popqc-request-id: build-7751.retry_2\r\n",
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "x-popqc-request-id"),
        Some("build-7751.retry_2"),
        "a well-formed client id must be honored"
    );

    for bad in ["spaces are not ok", "shell`injection`", &"x".repeat(65), ""] {
        let (status, headers, _) = request_with_headers(
            addr,
            "GET",
            "/healthz",
            &format!("x-popqc-request-id: {bad}\r\n"),
            "",
        );
        assert_eq!(status, 200);
        let echoed = header(&headers, "x-popqc-request-id").expect("id always echoed");
        assert_ne!(echoed, bad, "malformed id must be replaced, not echoed");
        assert!(
            echoed.contains('-') && echoed.len() <= 64,
            "replacement must be a minted id: {echoed}"
        );
    }
}

/// Unforced cheap requests are mostly NOT kept (tail sampling at the
/// default 1-in-16 leaves fast 200s untraced) — but the forced one next
/// to them always is. The discard side is asserted via the monotone
/// `popqc_traces_discarded_total` counter rather than the index: the
/// trace ring is process-global and parallel tests in this binary also
/// keep forced traces, so "no other trace is forced" would race.
#[test]
fn unforced_fast_requests_are_mostly_discarded_but_forced_is_kept() {
    let server = start_server();
    let addr = server.local_addr();
    let discarded = |body: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix("popqc_traces_discarded_total "))
            .expect("discard counter scraped")
            .parse()
            .expect("numeric counter")
    };

    let (status, _, before) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    // Sixteen fast GETs: each survives sampling with probability 1/16,
    // so at least one discard in the batch is a (1 - 16^-16) certainty,
    // and parallel tests can only push the global counter further up.
    for _ in 0..16 {
        let (status, _, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    let (status, headers, body) = request(addr, "POST", "/v1/optimize?trace=1", &sample_qasm(47));
    assert_eq!(status, 200, "body: {body}");
    let forced_id = header(&headers, "x-popqc-trace-id")
        .expect("trace id")
        .to_string();
    fetch_trace(addr, &forced_id);
    let (status, _, after) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(
        discarded(&after) > discarded(&before),
        "fast unforced requests must feed the discard counter"
    );

    let (status, _, body) = request(addr, "GET", "/v1/traces?limit=1024", "");
    assert_eq!(status, 200);
    let doc = serde_json::from_str(&body).expect("index JSON");
    let index = qapi::TraceIndex::from_json(&doc).expect("index DTO");
    let forced = index
        .traces
        .iter()
        .find(|t| t.trace_id == forced_id)
        .expect("forced trace missing from index");
    assert_eq!(forced.sampled_because, "forced");
}
