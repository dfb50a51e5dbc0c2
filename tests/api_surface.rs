//! Cross-surface contract tests: the HTTP frontend and the CLI emit the
//! SAME versioned `popqc-api` documents, built by the same adapter — for
//! one job, the two bodies are byte-identical up to the per-run timing
//! fields.

use popqc::http::{AppState, EventedConfig, EventedServer};
use popqc::prelude::*;
use popqc::service::report::job_status;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn http_body(addr: std::net::SocketAddr, method: &str, target: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read");
    reply.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

/// Zeroes the fields that legitimately differ between two runs of the
/// same job (queue/run wall time); everything else must match exactly.
fn normalize(doc: &serde_json::Value) -> qapi::JobStatus {
    let mut status = qapi::JobStatus::from_json(doc).expect("v1 job document");
    if let Some(r) = &mut status.result {
        r.queue_seconds = 0.0;
        r.run_seconds = 0.0;
    }
    status
}

#[test]
fn http_and_cli_job_documents_are_byte_identical() {
    let service_config = ServiceConfig {
        workers: 2,
        threads_per_job: 1,
        cache_capacity: 64,
        seg_cache_capacity: 0,
    };
    let circuit = Family::Vqe.generate(Family::Vqe.ladder(0)[0], 33);
    let qasm = popqc::ir::qasm::to_qasm(&circuit);

    // Surface 1: the HTTP frontend over a registry-based service. Its
    // access log writes one `info` line per request to stderr, which the
    // test harness does not capture.
    qobs::set_log_filter("warn").expect("valid log filter");
    let server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::new(AppState::new(
            OptimizationService::new(OracleRegistry::builtin(), service_config.clone()),
            80,
        )),
        EventedConfig::default(),
    )
    .expect("bind loopback");
    let body = http_body(
        server.local_addr(),
        "POST",
        "/v1/optimize?label=contract",
        &qasm,
    );
    let http_doc = serde_json::from_str(&body).expect("HTTP body is JSON");

    // Surface 2: what `popqc optimize --json` prints for the same job —
    // the same shared adapter over a fresh identical service, with the
    // same id assignment (first job = 1) and label.
    let svc = OptimizationService::new(OracleRegistry::builtin(), service_config);
    let result = svc.submit(circuit, &PopqcConfig::with_omega(80)).wait();
    let cli_doc = job_status(1, Some("contract"), result.stats.rounds, Some(&result)).to_json();

    // Byte-identical after zeroing the per-run timings: the engine is
    // deterministic, so every other field (fingerprint, oracle id, gate
    // counts, rounds, oracle calls, optimized QASM) matches exactly, and
    // one serializer renders both.
    let http_text = serde_json::to_string(&normalize(&http_doc).to_json()).unwrap();
    let cli_text = serde_json::to_string(&normalize(&cli_doc).to_json()).unwrap();
    assert_eq!(http_text, cli_text);

    // Sanity: the normalized documents really carry the payload.
    let status = normalize(&http_doc);
    let report = status.result.expect("completed job");
    assert_eq!(report.oracle, "rule_based");
    assert!(report.qasm.is_some());
    assert!(report.output_gates > 0);
}

#[test]
fn facade_exposes_the_api_crate() {
    // The versioned surface is reachable through the facade for clients
    // that link `popqc` directly.
    assert_eq!(popqc::api::API_VERSION, "v1");
    let err = popqc::api::ApiError::Overloaded("busy".into());
    assert_eq!(err.http_status(), 503);
    assert_eq!(
        popqc::api::ApiError::from_json(&err.to_json()).unwrap(),
        err
    );
}
