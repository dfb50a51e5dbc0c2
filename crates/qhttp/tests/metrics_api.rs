//! Loopback tests for `GET /v1/metrics`: a real server on an ephemeral
//! port scraped over a raw `TcpStream`, proving the observability
//! acceptance properties end to end — the series inventory is fully
//! typed on the very first scrape, traffic moves the job/oracle/HTTP
//! counters, a cache-hit repeat advances the hit counter while the
//! oracle-call counters stay flat, and every response echoes a
//! process-unique `x-popqc-request-id`.
//!
//! The metrics registry is process-global, which is exactly why these
//! tests live in their own integration binary: the `http_api` tests run
//! in a different process and cannot perturb the deltas asserted here.
//! Within this binary, absolute values are never asserted — only deltas
//! between scrapes bracketing known traffic.

use benchgen::Family;
use qhttp::api::AppState;
use qhttp::evented::{EventedConfig, EventedServer};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

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
            seg_cache_capacity: 0,
        },
    );
    let state = Arc::new(AppState::new(svc, 80));
    EventedServer::serve("127.0.0.1:0", state, EventedConfig::default()).expect("bind loopback")
}

fn sample_qasm(seed: u64) -> String {
    qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], seed))
}

/// One-shot request; returns (status, headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
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

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// A scrape parsed into `# TYPE` kinds per family and a value per series
/// (series key = `name{sorted labels}` as rendered).
struct Scrape {
    types: BTreeMap<String, String>,
    series: BTreeMap<String, f64>,
}

fn scrape(addr: SocketAddr) -> Scrape {
    let (status, headers, body) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4"),
        "exposition content type"
    );
    let mut types = BTreeMap::new();
    let mut series = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line");
            types.insert(name.to_string(), kind.to_string());
        } else if !line.starts_with('#') && !line.is_empty() {
            let (key, value) = line.rsplit_once(' ').expect("sample line");
            let value = if value == "+Inf" {
                f64::INFINITY
            } else {
                value.parse().expect("sample value")
            };
            series.insert(key.to_string(), value);
        }
    }
    Scrape { types, series }
}

/// The snapshot-stable series inventory: every family the runtime crates
/// register, with its type, present and typed on the FIRST scrape of a
/// fresh server — before any optimize traffic has created a single
/// labeled child. A rename, a dropped registration, or a type change
/// fails here.
#[test]
fn first_scrape_lists_the_full_typed_inventory() {
    let server = start_server();
    let scrape = scrape(server.local_addr());

    let expected = [
        // qsvc job accounting
        ("popqc_cache_hits_total", "counter"),
        ("popqc_cache_misses_total", "counter"),
        ("popqc_jobs_coalesced_total", "counter"),
        ("popqc_jobs_failed_total", "counter"),
        ("popqc_queue_depth", "gauge"),
        ("popqc_job_duration_seconds", "histogram"),
        ("popqc_rounds_to_fixpoint", "histogram"),
        ("popqc_oracle_call_duration_seconds", "histogram"),
        // result-store tiers
        ("popqc_store_get_duration_seconds", "histogram"),
        ("popqc_store_put_duration_seconds", "histogram"),
        ("popqc_store_entries", "gauge"),
        ("popqc_store_bytes", "gauge"),
        // remote cache tier (client side)
        ("popqc_remote_hits_total", "counter"),
        ("popqc_remote_misses_total", "counter"),
        ("popqc_remote_errors_total", "counter"),
        ("popqc_remote_roundtrip_seconds", "histogram"),
        // segment cache (engine hot path)
        ("popqc_segcache_hits_total", "counter"),
        ("popqc_segcache_misses_total", "counter"),
        ("popqc_segcache_evictions_total", "counter"),
        ("popqc_segcache_lookup_duration_seconds", "histogram"),
        // executor
        ("popqc_exec_tasks_total", "counter"),
        ("popqc_exec_steals_total", "counter"),
        ("popqc_exec_splits_total", "counter"),
        ("popqc_exec_parallel_ops_total", "counter"),
        ("popqc_exec_pool_workers", "gauge"),
        ("popqc_exec_parallel_op_duration_seconds", "histogram"),
        // HTTP frontend
        ("popqc_http_requests_total", "counter"),
        ("popqc_http_request_duration_seconds", "histogram"),
        ("popqc_http_requests_in_flight", "gauge"),
        // evented connection layer
        ("popqc_net_connections_open", "gauge"),
        ("popqc_net_connections_total", "counter"),
        ("popqc_net_shed_total", "counter"),
        ("popqc_net_rate_limited_total", "counter"),
        ("popqc_net_deadline_closes_total", "counter"),
        ("popqc_net_write_stalls_total", "counter"),
        // request tracer (tail sampling outcome)
        ("popqc_traces_kept_total", "counter"),
        ("popqc_traces_discarded_total", "counter"),
    ];
    for (family, kind) in expected {
        assert_eq!(
            scrape.types.get(family).map(String::as_str),
            Some(kind),
            "family `{family}` missing or mistyped in first scrape"
        );
    }
    // The inventory is exactly the popqc_* families above — a new
    // registration must be added to this table (that is the snapshot).
    let popqc_families: Vec<&str> = scrape
        .types
        .keys()
        .map(String::as_str)
        .filter(|n| n.starts_with("popqc_"))
        .collect();
    let mut expected_names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    expected_names.sort_unstable();
    assert_eq!(popqc_families, expected_names, "series inventory drifted");
}

/// The PR acceptance property: counters move with traffic, and two
/// scrapes around a cache-hit repeat show the per-oracle hit counter
/// advance while the oracle-call latency count stays flat.
#[test]
fn optimize_traffic_moves_counters_and_cache_hits_keep_oracle_flat() {
    let server = start_server();
    let addr = server.local_addr();
    let qasm = sample_qasm(33);

    let hits = r#"popqc_cache_hits_total{oracle="rule_based"}"#;
    let misses = r#"popqc_cache_misses_total{oracle="rule_based"}"#;
    let oracle_calls = r#"popqc_oracle_call_duration_seconds_count{oracle="rule_based"}"#;
    let jobs = r#"popqc_job_duration_seconds_count{oracle="rule_based"}"#;
    let http_optimize = r#"popqc_http_requests_total{endpoint="/v1/optimize",status="2xx"}"#;
    let http_duration = r#"popqc_http_request_duration_seconds_count{endpoint="/v1/optimize"}"#;

    let before = scrape(addr);
    // Per-oracle children do not exist before the first job for that
    // oracle; treat an absent series as 0.
    let at = |s: &Scrape, key: &str| s.series.get(key).copied().unwrap_or(0.0);

    // Cold POST: a miss that pays real oracle calls.
    let (status, headers, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200, "body: {body}");
    let first_id = header(&headers, "x-popqc-request-id")
        .expect("response carries x-popqc-request-id")
        .to_string();

    let after_cold = scrape(addr);
    assert_eq!(at(&after_cold, misses) - at(&before, misses), 1.0);
    assert_eq!(at(&after_cold, hits) - at(&before, hits), 0.0);
    let calls_cold = at(&after_cold, oracle_calls);
    assert!(
        calls_cold - at(&before, oracle_calls) > 0.0,
        "cold POST must time oracle calls"
    );
    assert_eq!(at(&after_cold, jobs) - at(&before, jobs), 1.0);
    assert!(at(&after_cold, http_optimize) - at(&before, http_optimize) >= 1.0);
    assert!(at(&after_cold, http_duration) - at(&before, http_duration) >= 1.0);
    // The store now holds the entry (gauges are synced at scrape time).
    assert!(at(&after_cold, r#"popqc_store_entries{tier="memory"}"#) >= 1.0);
    assert!(at(&after_cold, r#"popqc_store_bytes{tier="memory"}"#) > 0.0);

    // Identical repeat: served from the store. The hit counter advances;
    // the oracle-call count must NOT.
    let (status, headers, body) = request(addr, "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"cache_hit\":true"), "body: {body}");
    let second_id = header(&headers, "x-popqc-request-id").expect("request id on every response");
    assert_ne!(first_id, second_id, "request ids are per-request");

    let after_warm = scrape(addr);
    assert_eq!(at(&after_warm, hits) - at(&after_cold, hits), 1.0);
    assert_eq!(at(&after_warm, misses) - at(&after_cold, misses), 0.0);
    assert_eq!(
        at(&after_warm, oracle_calls),
        calls_cold,
        "a cache hit must issue zero oracle calls"
    );
    assert_eq!(at(&after_warm, jobs) - at(&after_cold, jobs), 1.0);

    // The rounds histogram counted exactly the one engine run.
    assert_eq!(
        at(&after_warm, "popqc_rounds_to_fixpoint_count")
            - at(&before, "popqc_rounds_to_fixpoint_count"),
        1.0
    );
    // HTTP histograms have well-formed cumulative buckets over the wire.
    let inf = at(
        &after_warm,
        r#"popqc_http_request_duration_seconds_bucket{endpoint="/v1/optimize",le="+Inf"}"#,
    );
    assert_eq!(inf, at(&after_warm, http_duration), "+Inf bucket == count");
    // The scrape observes itself mid-flight — and nothing else, since we
    // are the only client.
    assert_eq!(at(&after_warm, "popqc_http_requests_in_flight"), 1.0);
}
