//! Two servers in one process: every `GET /v1/metrics` scrape reports the
//! server that answers it. The job counters and the frontend's
//! `popqc_net_*` counters are per instance and copied into the registry
//! at scrape time, under one lock, so concurrent scrapes of two servers
//! never show each other's numbers.
//!
//! A binary of its own: the job it runs would otherwise move the
//! process-wide histograms whose deltas `metrics_api.rs` asserts.

use benchgen::Family;
use qhttp::api::AppState;
use qhttp::evented::{EventedConfig, EventedServer};
use qsvc::{OptimizationService, OracleRegistry, ServiceConfig};
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
            workers: 1,
            threads_per_job: 1,
            cache_capacity: 64,
            seg_cache_capacity: 0,
        },
    );
    let state = Arc::new(AppState::new(svc, 80));
    EventedServer::serve("127.0.0.1:0", state, EventedConfig::default()).expect("bind loopback")
}

/// One request on a fresh connection; returns (status, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// The value of the sample line for `series` (name plus rendered labels).
fn sample(scrape: &str, series: &str) -> Option<f64> {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// `frontend.connections_accepted` of the server's own `/v1/stats`.
fn connections_accepted(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "body: {body}");
    let doc = serde_json::from_str(&body).expect("stats JSON");
    let stats = qapi::StatsReport::from_json(&doc).expect("stats DTO");
    stats
        .frontend
        .expect("evented frontend")
        .connections_accepted
}

#[test]
fn each_scrape_reports_the_server_that_answers_it() {
    let a = start_server();
    let b = start_server();
    let qasm = qcir::qasm::to_qasm(&Family::Vqe.generate(Family::Vqe.ladder(0)[0], 5));
    let (status, body) = request(b.local_addr(), "POST", "/v1/optimize", &qasm);
    assert_eq!(status, 200, "body: {body}");

    let misses = r#"popqc_cache_misses_total{oracle="rule_based"}"#;
    std::thread::scope(|s| {
        for (name, addr, expected_misses) in
            [("A", a.local_addr(), 0.0), ("B", b.local_addr(), 1.0)]
        {
            s.spawn(move || {
                for round in 0..40 {
                    let accepted = connections_accepted(addr);
                    let (status, scrape) = request(addr, "GET", "/v1/metrics", "");
                    assert_eq!(status, 200, "scrape of {name}");
                    assert_eq!(
                        sample(&scrape, misses),
                        Some(expected_misses),
                        "server {name}, scrape {round}: {misses}"
                    );
                    let total = sample(&scrape, "popqc_net_connections_total")
                        .expect("popqc_net_connections_total sample");
                    assert!(
                        total >= accepted as f64,
                        "server {name}, scrape {round}: connections_total {total} below \
                         its own stats' {accepted}"
                    );
                }
            });
        }
    });
}
