//! The HTTP frontend end to end in one process: start a registry-based
//! server on an ephemeral port, then act as its own remote client over a
//! plain `TcpStream` — discover the API (`/v1/version`, `/v1/oracles`),
//! optimize a circuit (cold), resubmit it (cache hit), re-run it under a
//! *different* oracle selected per request (`?oracle=`, a distinct cache
//! entry), race duplicate submissions (in-flight coalescing), and read
//! `/v1/stats`.
//!
//! ```sh
//! cargo run --release --example serve_http
//! ```

use popqc::http::{AppState, EventedConfig, EventedServer};
use popqc::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("receive");
    reply.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

fn main() {
    // The full built-in registry: every oracle stays selectable per
    // request; `rule_based` answers requests that name none.
    let svc = OptimizationService::new(
        OracleRegistry::builtin(),
        ServiceConfig {
            workers: 4,
            threads_per_job: 1,
            ..ServiceConfig::default()
        },
    );
    let server = EventedServer::serve(
        "127.0.0.1:0",
        Arc::new(AppState::new(svc, 100)),
        EventedConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    println!("serving on http://{addr}");

    // API discovery: version + the oracle registry.
    println!(
        "\nGET /v1/version -> {}",
        request(addr, "GET", "/v1/version", "")
    );
    println!(
        "\nGET /v1/oracles -> {}",
        request(addr, "GET", "/v1/oracles", "")
    );

    let qasm = popqc::ir::qasm::to_qasm(&Family::Vqe.generate(12, 42));

    // Cold: the engine runs under the default oracle.
    let cold = request(addr, "POST", "/v1/optimize?label=vqe-12", &qasm);
    println!("\ncold POST /v1/optimize -> {cold}");

    // Warm: identical circuit, answered from the result cache.
    let warm = request(addr, "POST", "/v1/optimize", &qasm);
    println!("\nwarm POST /v1/optimize -> {warm}");

    // Same circuit through a different oracle, selected per request: a
    // distinct cache entry in the same shared cache (cache_hit:false).
    let other = request(addr, "POST", "/v1/optimize?oracle=rule_single_pass", &qasm);
    println!("\nPOST /v1/optimize?oracle=rule_single_pass -> {other}");

    // Concurrent duplicates: one computation, the rest coalesce (visible
    // in /v1/stats below as `coalesced`); a distinct circuit so it is not
    // already cached.
    let fresh = popqc::ir::qasm::to_qasm(&Family::Grover.generate(8, 7));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let fresh = &fresh;
            s.spawn(move || request(addr, "POST", "/v1/optimize", fresh));
        }
    });

    let stats = request(addr, "GET", "/v1/stats", "");
    println!("\nGET /v1/stats -> {stats}");
}
