//! The loopback suite for the v1 API: every acceptance property driven
//! against a real evented server on an ephemeral port with a raw
//! `TcpStream` client (no HTTP library on either side) — serving,
//! cache-hit accounting, concurrent-duplicate deduplication, per-request
//! oracle selection, job polling, the full `ApiError` status taxonomy,
//! and clean 4xx behaviour on malformed input.
//!
//! The including test crate picks the server shape with a `config` fn:
//!
//! ```ignore
//! #[path = "shared/http_api_cases.rs"]
//! mod cases;
//! fn config() -> qhttp::evented::EventedConfig { /* … */ }
//! ```

use benchgen::Family;
use qcir::Gate;
use qhttp::api::AppState;
use qhttp::evented::EventedServer;
use qoracle::{RuleBasedOptimizer, SegmentOracle};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

/// Serves `state` on an ephemeral loopback port in the including crate's
/// configuration.
fn serve_state(state: Arc<AppState>) -> EventedServer {
    EventedServer::serve("127.0.0.1:0", state, crate::config()).expect("bind loopback")
}

/// The full built-in registry (`rule_based` default + `rule_single_pass`
/// + `search`) behind one server — the shape `popqc serve` deploys.
fn start_server(workers: usize) -> EventedServer {
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers,
            threads_per_job: 1,
            cache_capacity: 64,
            cache_shards: 4,
            seg_cache_capacity: 0,
        },
    );
    serve_state(Arc::new(AppState::new(svc, 80)))
}

fn sample_qasm() -> String {
    qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], 21))
}

/// One-shot request over a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    read_response(&mut stream)
}

/// Reads one full response (status line, headers, Content-Length body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
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
    let head = std::str::from_utf8(&raw[..headers_end]).unwrap();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body =
        String::from_utf8_lossy(&raw[headers_end..headers_end + content_length]).into_owned();
    (status, body)
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON response: {e}\n{body}"))
}

fn get_stats(addr: SocketAddr) -> Value {
    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    json(&body)
}

/// Every error body — API-taxonomy or transport-level — has the one v1
/// wire shape: `api_version` plus an `error` object with kind + message.
fn assert_error_body(body: &str, kind: &str) {
    let doc = json(body);
    assert_eq!(
        doc.get("api_version").unwrap().as_str(),
        Some("v1"),
        "body: {body}"
    );
    let err = doc.get("error").expect("error object");
    assert_eq!(
        err.get("kind").unwrap().as_str(),
        Some(kind),
        "body: {body}"
    );
    assert!(err.get("message").unwrap().as_str().is_some());
}

/// Blocks every oracle call until released, pinning submitted jobs in the
/// pending state so registry-capacity behaviour is deterministic.
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

/// Panics on every call — the remote-client view of a buggy oracle.
struct PanicOracle;

impl SegmentOracle<Gate> for PanicOracle {
    fn optimize(&self, _units: &[Gate], _num_qubits: u32) -> Vec<Gate> {
        panic!("injected oracle fault");
    }

    fn cost(&self, units: &[Gate]) -> u64 {
        units.len() as u64
    }

    fn name(&self) -> &'static str {
        "panic-always"
    }
}

#[test]
fn healthz_and_stats_respond() {
    let server = start_server(2);
    let addr = server.local_addr();

    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("status").unwrap().as_str(), Some("ok"));

    let stats = get_stats(addr);
    assert_eq!(stats.get("submitted").unwrap().as_u64(), Some(0));
    assert!(stats.get("workers").unwrap().as_u64().unwrap() >= 1);
}

/// The `frontend` block of `/v1/stats` names the frontend actually
/// serving and counts its connections.
#[test]
fn stats_frontend_block_names_the_serving_frontend() {
    let server = start_server(1);
    let addr = server.local_addr();

    let stats = get_stats(addr);
    let fe = stats.get("frontend").expect("frontend block in /v1/stats");
    assert_eq!(fe.get("frontend").unwrap().as_str(), Some("evented"));
    assert!(
        fe.get("connections_accepted").unwrap().as_u64().unwrap() >= 1,
        "the stats request itself arrived over a counted connection"
    );
    assert_eq!(fe.get("requests_shed").unwrap().as_u64(), Some(0));
    assert_eq!(fe.get("rate_limited").unwrap().as_u64(), Some(0));
}

#[test]
fn optimize_twice_second_is_cache_hit_with_zero_new_oracle_calls() {
    let server = start_server(2);
    let addr = server.local_addr();
    let qasm = sample_qasm();

    let (status, body) = request(addr, "POST", "/v1/optimize?label=first", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let first = json(&body);
    assert_eq!(first.get("done").unwrap().as_bool(), Some(true));
    assert_eq!(first.get("label").unwrap().as_str(), Some("first"));
    let result = first.get("result").unwrap();
    assert_eq!(result.get("cache_hit").unwrap().as_bool(), Some(false));
    assert!(result.get("oracle_calls").unwrap().as_u64().unwrap() > 0);
    let optimized = result.get("qasm").unwrap().as_str().unwrap();
    assert!(qcir::qasm::parse(optimized).is_ok(), "output must re-parse");
    let calls_after_cold = get_stats(addr)
        .get("oracle_calls_issued")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(calls_after_cold > 0);

    // Identical resubmission: a cache hit, and the service-wide oracle-call
    // counter must not move.
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200);
    let second = json(&body);
    let result = second.get("result").unwrap();
    assert_eq!(result.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(
        result.get("qasm").unwrap().as_str().unwrap(),
        optimized,
        "hit must return the identical circuit"
    );
    let stats = get_stats(addr);
    assert_eq!(
        stats.get("oracle_calls_issued").unwrap().as_u64(),
        Some(calls_after_cold),
        "second POST must issue zero oracle calls"
    );
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
}

#[test]
fn concurrent_duplicate_posts_compute_once() {
    const CLIENTS: usize = 6;
    let server = start_server(4);
    let addr = server.local_addr();
    let qasm = sample_qasm();

    let responses: Vec<Value> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let qasm = &qasm;
                s.spawn(move || {
                    let (status, body) = request(addr, "POST", "/v1/optimize", qasm);
                    assert_eq!(status, 200, "body: {body}");
                    json(&body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // However the submissions interleave, exactly one computes; the rest
    // are coalesced waiters or (if the first finished early) cache hits.
    let mut misses = 0;
    let mut outputs = std::collections::HashSet::new();
    for r in &responses {
        let result = r.get("result").unwrap();
        if result.get("cache_hit").unwrap().as_bool() == Some(false) {
            misses += 1;
        }
        outputs.insert(result.get("qasm").unwrap().as_str().unwrap().to_string());
    }
    assert_eq!(misses, 1, "exactly one of {CLIENTS} duplicates computes");
    assert_eq!(outputs.len(), 1, "all clients get the identical circuit");

    let stats = get_stats(addr);
    assert_eq!(
        stats.get("submitted").unwrap().as_u64(),
        Some(CLIENTS as u64)
    );
    assert_eq!(
        stats.get("cache_hits").unwrap().as_u64(),
        Some((CLIENTS - 1) as u64)
    );
}

#[test]
fn async_submission_and_job_polling() {
    let server = start_server(2);
    let addr = server.local_addr();
    let qasm = sample_qasm();

    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false&label=bg", &qasm);
    assert_eq!(status, 202, "body: {body}");
    let doc = json(&body);
    let id = doc.get("job_id").unwrap().as_u64().unwrap();
    assert!(doc.get("result").is_none());

    // Poll until done (bounded; the circuit is small).
    let mut done = false;
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        let doc = json(&body);
        if doc.get("done").unwrap().as_bool() == Some(true) {
            let result = doc.get("result").unwrap();
            assert_eq!(doc.get("label").unwrap().as_str(), Some("bg"));
            assert!(result.get("output_gates").unwrap().as_u64().unwrap() > 0);
            assert_eq!(
                doc.get("rounds_completed").unwrap().as_u64().unwrap(),
                result.get("rounds").unwrap().as_u64().unwrap()
            );
            done = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(done, "job {id} never completed");

    let (status, _) = request(addr, "GET", "/v1/jobs/999999", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/jobs/not-a-number", "");
    assert_eq!(status, 400);

    // wait=false on an already-cached circuit completes synchronously:
    // the response must say so (200 + result), not demand a pointless poll.
    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let doc = json(&body);
    assert_eq!(doc.get("done").unwrap().as_bool(), Some(true));
    assert_eq!(
        doc.get("result")
            .unwrap()
            .get("cache_hit")
            .unwrap()
            .as_bool(),
        Some(true)
    );
}

#[test]
fn batch_endpoint_reports_per_job_and_aggregate_counters() {
    let server = start_server(2);
    let addr = server.local_addr();
    let a = sample_qasm();
    let b = qcir::qasm::to_qasm(&Family::Grover.generate(Family::Grover.ladder(0)[0], 5));

    let body = serde_json::to_string(&serde_json::json!({
        "omega": 64,
        "circuits": [
            {"label": "vqe", "qasm": a.clone()},
            {"label": "grover", "qasm": b},
            {"label": "vqe-again", "qasm": a},
        ],
    }))
    .unwrap();
    let (status, reply) = request(addr, "POST", "/v1/batch", &body);
    assert_eq!(status, 200, "body: {reply}");
    let report = json(&reply);
    assert_eq!(report.get("job_count").unwrap().as_u64(), Some(3));
    let jobs = report.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(jobs[0].get("label").unwrap().as_str(), Some("vqe"));
    assert_eq!(jobs[2].get("label").unwrap().as_str(), Some("vqe-again"));
    // The duplicate inside one batch computes once (coalesced or cached).
    assert_eq!(report.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(
        jobs[0].get("qasm").unwrap().as_str(),
        jobs[2].get("qasm").unwrap().as_str()
    );
    for job in jobs {
        assert!(qcir::qasm::parse(job.get("qasm").unwrap().as_str().unwrap()).is_ok());
    }
}

#[test]
fn malformed_requests_get_clean_4xx_responses() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Unparseable QASM: 422 invalid_qasm with the parser's message, not a
    // panic (the transport was fine, the program text was not).
    let (status, body) = request(
        addr,
        "POST",
        "/v1/optimize",
        "OPENQASM 2.0;\nqreg q]0[;\nh q[0];\n",
    );
    assert_eq!(status, 422);
    assert_error_body(&body, "invalid_qasm");
    assert!(body.contains("qreg"), "body: {body}");

    // Empty body.
    let (status, body) = request(addr, "POST", "/v1/optimize", "");
    assert_eq!(status, 422);
    assert_error_body(&body, "invalid_qasm");

    // Bad query parameter values: 400 invalid_config.
    let qasm = sample_qasm();
    for target in [
        "/v1/optimize?omega=zero",
        "/v1/optimize?omega=0",
        "/v1/optimize?wait=maybe",
    ] {
        let (status, body) = request(addr, "POST", target, &qasm);
        assert_eq!(status, 400, "{target}: body: {body}");
        assert_error_body(&body, "invalid_config");
    }

    // Batch body that is not JSON / missing fields: 400 invalid_config.
    let (status, body) = request(addr, "POST", "/v1/batch", "this is not json");
    assert_eq!(status, 400);
    assert_error_body(&body, "invalid_config");
    assert!(body.contains("JSON"), "body: {body}");
    let (status, body) = request(addr, "POST", "/v1/batch", "{\"circuits\": []}");
    assert_eq!(status, 400);
    assert_error_body(&body, "invalid_config");

    // A well-formed batch whose member QASM does not parse: 422.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/batch",
        "{\"circuits\": [{\"label\": \"bad\", \"qasm\": \"qreg q[1]; zz q[0];\"}]}",
    );
    assert_eq!(status, 422);
    assert_error_body(&body, "invalid_qasm");
    assert!(body.contains("bad"), "body: {body}");

    // Routing errors, in the same wire shape.
    let (status, body) = request(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    assert_error_body(&body, "not_found");
    let (status, body) = request(addr, "GET", "/v1/optimize", "");
    assert_eq!(status, 405);
    assert_error_body(&body, "method_not_allowed");
    let (status, body) = request(addr, "DELETE", "/healthz", "");
    assert_eq!(status, 405);
    assert_error_body(&body, "method_not_allowed");

    // A request that is not HTTP at all still gets a 400, then the
    // connection closes.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"SPEAK FRIEND AND ENTER\r\n\r\n").unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 400);
    assert_error_body(&body, "bad_request");
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = start_server(1);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(json(&body).get("status").unwrap().as_str(), Some("ok"));
    }

    // Chunked upload on the same connection.
    let qasm = sample_qasm();
    let mut chunked =
        String::from("POST /v1/optimize HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n");
    for part in qasm.as_bytes().chunks(100) {
        chunked.push_str(&format!("{:x}\r\n", part.len()));
        chunked.push_str(std::str::from_utf8(part).unwrap());
        chunked.push_str("\r\n");
    }
    chunked.push_str("0\r\n\r\n");
    stream.write_all(chunked.as_bytes()).unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(
        json(&body)
            .get("result")
            .unwrap()
            .get("cache_hit")
            .unwrap()
            .as_bool(),
        Some(false)
    );
}

#[test]
fn full_pending_registry_rejects_new_async_jobs_with_503() {
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
            cache_shards: 4,
            seg_cache_capacity: 0,
        },
    );
    // Registry cap of 2: pending jobs fill it; eviction may only remove
    // completed ones.
    let state = Arc::new(AppState::with_job_cap(svc, 80, 2));
    let server = serve_state(state);
    let addr = server.local_addr();

    // Three distinct circuits so nothing coalesces or cache-hits.
    let circuits: Vec<String> = [7u64, 9, 11]
        .iter()
        .map(|&n| qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], n)))
        .collect();

    let mut ids = Vec::new();
    for qasm in &circuits[..2] {
        let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", qasm);
        assert_eq!(status, 202, "body: {body}");
        ids.push(json(&body).get("job_id").unwrap().as_u64().unwrap());
    }
    // Registry now holds 2 pending jobs (the oracle is gated shut): the
    // next submission must be refused before it reaches the queue.
    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", &circuits[2]);
    assert_eq!(status, 503, "body: {body}");
    assert_error_body(&body, "overloaded");
    assert!(body.contains("pending"), "body: {body}");

    // Unblock the oracle, let both jobs finish, and the refused circuit is
    // accepted on retry (completed jobs are evicted to make room).
    *released.0.lock().unwrap() = true;
    released.1.notify_all();
    for id in ids {
        let mut done = false;
        for _ in 0..600 {
            let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
            assert_eq!(status, 200);
            if json(&body).get("done").unwrap().as_bool() == Some(true) {
                done = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(done, "job {id} never completed");
    }
    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", &circuits[2]);
    assert!(
        status == 202 || status == 200,
        "retry after drain must be accepted, got {status}: {body}"
    );
}

#[test]
fn oracle_panic_surfaces_as_500_and_server_keeps_serving() {
    let svc = OptimizationService::single(
        PanicOracle,
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 64,
            cache_shards: 4,
            seg_cache_capacity: 0,
        },
    );
    let state = Arc::new(AppState::new(svc, 80));
    let server = serve_state(state);
    let addr = server.local_addr();

    let qasm = sample_qasm();
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 500, "body: {body}");
    let doc = json(&body);
    let err = doc
        .get("result")
        .unwrap()
        .get("error")
        .unwrap()
        .as_str()
        .unwrap();
    assert!(err.contains("injected oracle fault"), "error: {err}");

    // Neither the worker pool nor the connection pool died with the panic.
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 500, "body: {body}");
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // A batch containing a failing job is a 500 whose report carries the
    // per-job error and does NOT echo the input circuit as `qasm`.
    let body = serde_json::to_string(&serde_json::json!({
        "circuits": [{"label": "boom", "qasm": qasm}],
    }))
    .unwrap();
    let (status, reply) = request(addr, "POST", "/v1/batch", &body);
    assert_eq!(status, 500, "body: {reply}");
    let report = json(&reply);
    let job = &report.get("jobs").unwrap().as_array().unwrap()[0];
    assert!(job
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("injected oracle fault"));
    assert!(job.get("qasm").is_none(), "failed job must not echo input");

    let (_, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(json(&body).get("failed").unwrap().as_u64(), Some(3));
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut server = start_server(1);
    let addr = server.local_addr();
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    server.shutdown(); // second call is a no-op
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may accept briefly while the socket drains; a request
            // must at least not be served.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap_or(0) == 0
        }
    );
}

#[test]
fn version_and_oracles_endpoints_describe_the_api() {
    let server = start_server(1);
    let addr = server.local_addr();

    let (status, body) = request(addr, "GET", "/v1/version", "");
    assert_eq!(status, 200);
    let version = qapi::VersionInfo::from_json(&json(&body)).expect("version DTO");
    assert_eq!(version.build_version, qapi::BUILD_VERSION);

    let (status, body) = request(addr, "GET", "/v1/oracles", "");
    assert_eq!(status, 200);
    let list = qapi::OracleList::from_json(&json(&body)).expect("oracle list DTO");
    let ids: Vec<&str> = list.oracles.iter().map(|o| o.id.as_str()).collect();
    assert_eq!(
        ids,
        ["rule_based", "rule_single_pass", "search", "structural"]
    );
    let defaults: Vec<&str> = list
        .oracles
        .iter()
        .filter(|o| o.default)
        .map(|o| o.id.as_str())
        .collect();
    assert_eq!(defaults, ["rule_based"], "exactly one default oracle");
}

#[test]
fn every_response_body_carries_api_version() {
    let server = start_server(1);
    let addr = server.local_addr();
    let qasm = sample_qasm();
    let batch = serde_json::to_string(&serde_json::json!({
        "circuits": [{"label": "a", "qasm": qasm.clone()}],
    }))
    .unwrap();

    let probes: Vec<(u16, String)> = vec![
        request(addr, "GET", "/healthz", ""),
        request(addr, "GET", "/v1/version", ""),
        request(addr, "GET", "/v1/oracles", ""),
        request(addr, "GET", "/v1/stats", ""),
        request(addr, "POST", "/v1/optimize", &qasm),
        request(addr, "POST", "/v1/batch", &batch),
        request(addr, "GET", "/v1/jobs/999", ""), // transport 404
        request(addr, "POST", "/v1/optimize", "not qasm"), // taxonomy 422
        request(addr, "GET", "/nope", ""),        // transport 404
        request(addr, "PUT", "/v1/stats", ""),    // transport 405
    ];
    for (status, body) in probes {
        assert_eq!(
            json(&body).get("api_version").and_then(Value::as_str),
            Some("v1"),
            "status {status}: body {body}"
        );
    }
}

/// The loopback half of the taxonomy table test: every `ApiError` variant
/// that a remote client can trigger comes back over the wire with its
/// documented kind and canonical status. (`internal` is unreachable
/// through a correct server by construction; its mapping is pinned by the
/// qapi unit table and the handler-panic test in `qhttp::evented`;
/// `rate_limited` needs the evented limiter enabled and is covered by the
/// `evented_edge` suite.)
#[test]
fn error_taxonomy_maps_to_documented_statuses_over_loopback() {
    let released = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = OracleRegistry::single_with_id(
        GatedOracle {
            inner: RuleBasedOptimizer::oracle(),
            released: Arc::clone(&released),
        },
        "gated",
    );
    registry
        .register("boom", "panics on every call", Arc::new(PanicOracle))
        .unwrap();
    let svc = OptimizationService::new(
        registry,
        ServiceConfig {
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 64,
            cache_shards: 4,
            seg_cache_capacity: 0,
        },
    );
    // Job cap 1 so a single gated pending job triggers `overloaded`.
    let state = Arc::new(AppState::with_job_cap(svc, 80, 1));
    let server = serve_state(state);
    let addr = server.local_addr();
    let qasm = sample_qasm();
    let distinct = qcir::qasm::to_qasm(&Family::Grover.generate(Family::Grover.ladder(0)[0], 3));

    // invalid_config -> 400.
    let (status, body) = request(addr, "POST", "/v1/optimize?omega=0", &qasm);
    assert_eq!(status, 400, "body: {body}");
    assert_error_body(&body, "invalid_config");

    // unknown_oracle -> 404, listing what IS available.
    let (status, body) = request(addr, "POST", "/v1/optimize?oracle=nope", &qasm);
    assert_eq!(status, 404, "body: {body}");
    assert_error_body(&body, "unknown_oracle");
    assert!(body.contains("gated"), "body: {body}");

    // invalid_qasm -> 422.
    let (status, body) = request(addr, "POST", "/v1/optimize", "qreg q]0[;");
    assert_eq!(status, 422, "body: {body}");
    assert_error_body(&body, "invalid_qasm");

    // oracle_failure -> 500 (the job document carries the error).
    let (status, body) = request(addr, "POST", "/v1/optimize?oracle=boom", &qasm);
    assert_eq!(status, 500, "body: {body}");
    let doc = qapi::JobStatus::from_json(&json(&body)).expect("job DTO");
    assert!(doc.result.unwrap().error.unwrap().contains("panicked"));

    // overloaded -> 503: one gated pending job fills the cap, the next
    // wait=false submission is refused.
    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", &qasm);
    assert_eq!(status, 202, "body: {body}");
    let (status, body) = request(addr, "POST", "/v1/optimize?wait=false", &distinct);
    assert_eq!(status, 503, "body: {body}");
    assert_error_body(&body, "overloaded");

    // Drain the gated job so shutdown is not blocked on the oracle.
    *released.0.lock().unwrap() = true;
    released.1.notify_all();
}

/// Every 503 refusal carries a `Retry-After` header — the wait=false
/// job-cap path here; the shed path is pinned in `evented_edge`.
#[test]
fn job_cap_503_carries_retry_after_header() {
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
            cache_shards: 4,
            seg_cache_capacity: 0,
        },
    );
    let state = Arc::new(AppState::with_job_cap(svc, 80, 1));
    let server = serve_state(state);
    let addr = server.local_addr();
    let qasm = sample_qasm();
    let distinct = qcir::qasm::to_qasm(&Family::Grover.generate(Family::Grover.ladder(0)[0], 3));

    let (status, _) = request(addr, "POST", "/v1/optimize?wait=false", &qasm);
    assert_eq!(status, 202);

    // Raw exchange so the headers are visible, not just the body.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/optimize?wait=false HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{distinct}",
        distinct.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503 "), "reply: {raw}");
    assert!(
        raw.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
        "503 must carry Retry-After: {raw}"
    );

    *released.0.lock().unwrap() = true;
    released.1.notify_all();
}

/// The tentpole acceptance property: ONE server answers requests for two
/// registered oracles selected per request via `?oracle=`, with distinct
/// cache entries per oracle, coalescing *within* each oracle, and the
/// registry visible at `GET /v1/oracles`.
#[test]
fn one_server_serves_two_oracles_with_distinct_cache_entries() {
    let server = start_server(4);
    let addr = server.local_addr();
    let qasm = sample_qasm();

    // Same circuit under the default (rule_based) and under an explicit
    // second oracle: both compute (distinct cache entries)…
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let rule = qapi::JobStatus::from_json(&json(&body))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(rule.oracle, "rule_based");
    assert!(!rule.cache_hit);

    let (status, body) = request(addr, "POST", "/v1/optimize?oracle=rule_single_pass", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let single = qapi::JobStatus::from_json(&json(&body))
        .unwrap()
        .result
        .unwrap();
    assert_eq!(single.oracle, "rule_single_pass");
    assert!(
        !single.cache_hit,
        "second oracle must be a fresh cache entry"
    );
    assert_eq!(single.fingerprint, rule.fingerprint, "same input circuit");

    // …and each oracle's resubmission hits its own entry.
    for (target, expect_oracle) in [
        ("/v1/optimize", "rule_based"),
        ("/v1/optimize?oracle=rule_single_pass", "rule_single_pass"),
    ] {
        let (status, body) = request(addr, "POST", target, &qasm);
        assert_eq!(status, 200, "body: {body}");
        let hit = qapi::JobStatus::from_json(&json(&body))
            .unwrap()
            .result
            .unwrap();
        assert_eq!(hit.oracle, expect_oracle);
        assert!(hit.cache_hit, "{target} resubmission must hit");
    }

    // Mixed-oracle batch over the same circuit: per-request selection with
    // one shared cache — both jobs are hits now.
    let batch = serde_json::to_string(&serde_json::json!({
        "circuits": [
            {"label": "r", "qasm": qasm.clone(), "oracle": "rule_based"},
            {"label": "s", "qasm": qasm.clone(), "oracle": "rule_single_pass"},
        ],
    }))
    .unwrap();
    let (status, body) = request(addr, "POST", "/v1/batch", &batch);
    assert_eq!(status, 200, "body: {body}");
    let report = qapi::BatchResponse::from_json(&json(&body)).expect("batch DTO");
    assert_eq!(report.cache_hits, 2);
    let oracles: Vec<&str> = report.jobs.iter().map(|j| j.oracle.as_str()).collect();
    assert_eq!(oracles, ["rule_based", "rule_single_pass"]);

    // Coalescing stays per-oracle: concurrent duplicates of a FRESH
    // circuit under each oracle compute once per oracle, not once total
    // and not once per request.
    let fresh = qcir::qasm::to_qasm(&Family::Grover.generate(Family::Grover.ladder(0)[0], 9));
    let responses: Vec<Value> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let fresh = &fresh;
                s.spawn(move || {
                    let target = if i % 2 == 0 {
                        "/v1/optimize"
                    } else {
                        "/v1/optimize?oracle=rule_single_pass"
                    };
                    let (status, body) = request(addr, "POST", target, fresh);
                    assert_eq!(status, 200, "body: {body}");
                    json(&body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut misses_per_oracle = std::collections::HashMap::new();
    for r in &responses {
        let result = qapi::JobStatus::from_json(r).unwrap().result.unwrap();
        if !result.cache_hit {
            *misses_per_oracle.entry(result.oracle.clone()).or_insert(0) += 1;
        }
    }
    assert_eq!(
        misses_per_oracle.get("rule_based"),
        Some(&1),
        "exactly one computation per oracle: {misses_per_oracle:?}"
    );
    assert_eq!(misses_per_oracle.get("rule_single_pass"), Some(&1));
}

#[test]
fn optimize_accepts_the_json_request_form() {
    let server = start_server(2);
    let addr = server.local_addr();
    let req = qapi::OptimizeRequest {
        qasm: sample_qasm(),
        oracle: Some("rule_single_pass".into()),
        omega: Some(64),
        label: Some("typed".into()),
        wait: true,
    };
    let body = serde_json::to_string(&req.to_json()).unwrap();

    let (status, reply) = request(addr, "POST", "/v1/optimize", &body);
    assert_eq!(status, 200, "body: {reply}");
    let doc = qapi::JobStatus::from_json(&json(&reply)).expect("job DTO");
    assert_eq!(doc.label.as_deref(), Some("typed"));
    let result = doc.result.unwrap();
    assert_eq!(result.oracle, "rule_single_pass");
    assert_eq!(result.omega, 64);

    // Mixing the JSON form with query options is refused, not guessed at.
    let (status, reply) = request(addr, "POST", "/v1/optimize?omega=32", &body);
    assert_eq!(status, 400, "body: {reply}");
    assert_error_body(&reply, "invalid_config");
}

// ---------------------------------------------------------------------------
// /v1/cache admin surface
// ---------------------------------------------------------------------------

#[test]
fn cache_endpoint_reflects_hits_and_delete_forces_recompute() {
    let server = start_server(2);
    let addr = server.local_addr();
    let qasm = sample_qasm();

    // Fresh server: an empty single-tier memory store.
    let (status, body) = request(addr, "GET", "/v1/cache", "");
    assert_eq!(status, 200, "body: {body}");
    let report = qapi::CacheReport::from_json(&json(&body)).expect("cache DTO");
    assert_eq!(report.backend, "memory");
    assert_eq!((report.entries, report.hits), (0, 0));
    assert_eq!(report.tiers.len(), 1);
    assert_eq!(report.tiers[0].tier, "memory");

    // Double POST: the second answers from the store, and /v1/cache says so.
    let (status, _) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200);
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200);
    assert_eq!(
        json(&body)
            .get("result")
            .unwrap()
            .get("cache_hit")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    let (_, body) = request(addr, "GET", "/v1/cache", "");
    let report = qapi::CacheReport::from_json(&json(&body)).unwrap();
    assert_eq!(report.hits, 1, "the double-POST hit must be visible");
    assert_eq!(report.entries, 1);
    assert!(report.bytes > 0);

    // /v1/stats carries the same per-tier breakdown.
    let stats = qapi::StatsReport::from_json(&get_stats(addr)).expect("stats DTO");
    assert_eq!(stats.cache_backend, "memory");
    assert_eq!(stats.cache_tiers.len(), 1);
    assert_eq!(stats.cache_tiers[0].hits, 1);

    // DELETE /v1/cache drops the entry; the next identical POST recomputes.
    let calls_before = stats.oracle_calls_issued;
    let (status, body) = request(addr, "DELETE", "/v1/cache", "");
    assert_eq!(status, 200, "body: {body}");
    let cleared = qapi::CacheClearResponse::from_json(&json(&body)).expect("clear DTO");
    assert!(cleared.cleared);
    assert_eq!(cleared.entries_removed, 1);

    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200);
    assert_eq!(
        json(&body)
            .get("result")
            .unwrap()
            .get("cache_hit")
            .unwrap()
            .as_bool(),
        Some(false),
        "a cleared cache must recompute"
    );
    let stats = qapi::StatsReport::from_json(&get_stats(addr)).unwrap();
    assert!(
        stats.oracle_calls_issued > calls_before,
        "the recompute must have paid real oracle calls"
    );

    // Unsupported methods on the admin route answer 405, not a guess.
    let (status, body) = request(addr, "POST", "/v1/cache", "");
    assert_eq!(status, 405, "body: {body}");
}

#[test]
fn restarted_server_over_a_disk_store_answers_from_the_disk_tier() {
    let dir = std::env::temp_dir().join(format!("popqc-http-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let _cleanup = Cleanup(dir.clone());
    let qasm = sample_qasm();

    let serve_tiered = || {
        let store = qsvc::build_store(qsvc::StoreTier::Tiered, Some(&dir), None, 64, 4).unwrap();
        let svc = OptimizationService::with_store(
            OracleRegistry::builtin(),
            ServiceConfig {
                workers: 1,
                threads_per_job: 1,
                cache_capacity: 64,
                cache_shards: 4,
                seg_cache_capacity: 0,
            },
            store,
        );
        serve_state(Arc::new(AppState::new(svc, 80)))
    };

    // Server one computes, persists, and is torn down.
    let optimized = {
        let server = serve_tiered();
        let (status, body) = request(server.local_addr(), "POST", "/v1/optimize", &qasm);
        assert_eq!(status, 200, "body: {body}");
        let doc = json(&body);
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("cache_hit").unwrap().as_bool(), Some(false));
        result.get("qasm").unwrap().as_str().unwrap().to_string()
    };

    // Server two — a new service, new memory tier, same directory. The
    // identical POST must be a cache hit served from disk with zero new
    // oracle calls, and the disk tier's hit counter must show it.
    let server = serve_tiered();
    let addr = server.local_addr();
    let (status, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let doc = json(&body);
    let result = doc.get("result").unwrap();
    assert_eq!(
        result.get("cache_hit").unwrap().as_bool(),
        Some(true),
        "restart must answer from the disk tier"
    );
    assert_eq!(
        result.get("qasm").unwrap().as_str().unwrap(),
        optimized,
        "the restored circuit must be identical"
    );
    let stats = qapi::StatsReport::from_json(&get_stats(addr)).unwrap();
    assert_eq!(stats.oracle_calls_issued, 0, "no recompute after restart");
    let (_, body) = request(addr, "GET", "/v1/cache", "");
    let report = qapi::CacheReport::from_json(&json(&body)).unwrap();
    assert_eq!(report.backend, "tiered");
    let disk = report.tiers.iter().find(|t| t.tier == "disk").unwrap();
    assert_eq!(disk.hits, 1, "the hit must be attributed to the disk tier");
}
