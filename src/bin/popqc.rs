//! The `popqc` CLI: batch-optimize QASM circuits through the optimization
//! service.
//!
//! ```text
//! popqc optimize <FILE|DIR>... [--out DIR] [--omega N] [--oracle ID]
//!                [--workers N] [--threads-per-job N]
//!                [--cache-capacity N] [--seg-cache-capacity N]
//!                [--cache-tier memory|disk|tiered|remote|null]
//!                [--cache-dir DIR] [--cache-addr HOST:PORT]
//!                [--repeat N] [--report FILE] [--json] [--verify] [--quiet]
//!                [--log-level error|warn|info|debug]
//! popqc serve [--addr HOST:PORT] [--workers N] [--threads-per-job N]
//!             [--omega N] [--oracle ID] [--cache-capacity N]
//!             [--seg-cache-capacity N]
//!             [--conn-threads N] [--max-conns N] [--rate-limit R]
//!             [--shed-queue-depth N]
//!             [--cache-tier memory|disk|tiered|remote|null]
//!             [--cache-dir DIR] [--cache-addr HOST:PORT]
//!             [--trace-capacity N] [--trace-slow-ms MS]
//!             [--log-level error|warn|info|debug]
//! popqc trace <ID|last> [--addr HOST:PORT] [--chrome]
//! popqc cached [--addr HOST:PORT] --cache-dir DIR [--cache-tier disk|tiered]
//!              [--cache-capacity N] [--max-conns N]
//!              [--log-level error|warn|info|debug]
//! popqc cache stats --cache-dir DIR
//! popqc cache clear --cache-dir DIR
//! popqc cache warm <FILE|DIR>... --cache-dir DIR [--omega N] [--oracle ID]
//! popqc gen --family NAME --qubits N [--seed S] [--out FILE|DIR]
//! popqc oracles
//! popqc families
//! ```
//!
//! `optimize` ingests `.qasm` files (directories are scanned for them),
//! submits every circuit as a job to an in-process [`OptimizationService`],
//! writes each optimized circuit as QASM under `--out`, and emits the
//! versioned `popqc-api` report with per-job and service-level
//! cache/oracle accounting. `--json` prints one `JobStatus` document per
//! job to stdout — the exact DTO the HTTP frontend serves, built by the
//! same adapter, so the two surfaces are byte-identical for the same job.
//! `--repeat N` resubmits the same batch N times in-process — pass 2+
//! should be pure cache hits with zero new oracle calls, which the report
//! makes auditable. `--verify` equivalence-checks outputs on small
//! circuits via the state-vector simulator.
//!
//! `--oracle` names an [`OracleRegistry`] id (see `popqc oracles`); the
//! server keeps every registered oracle live and uses `--oracle` only as
//! the default for requests that do not select one.
//!
//! `--seg-cache-capacity` sizes the engine-level segment cache (see
//! `qsvc::segcache`): per-*segment* rewrites are memoized inside the
//! engine hot path, keyed angle-abstractly for angle-independent oracles
//! (`structural`) so parameterized resubmissions reuse every
//! structurally-unchanged segment's rewrite without new oracle calls.
//! The CLI default is 4096 entries; `0` disables it.
//!
//! `--cache-tier`/`--cache-dir`/`--cache-addr` pick the result-store
//! backend (see `qsvc::store`): `tiered` or `disk` over a directory makes
//! warm starts survive process restarts, `remote` (or `tiered` over
//! `--cache-addr`) shares one `popqc cached` server across a replica
//! fleet, and `popqc cache {stats,clear,warm}` administers a cache
//! directory offline.
//!
//! `cached` runs the shared cache server itself: it serves the
//! `qsvc::wire` protocol over a disk-backed store at `--cache-dir`, so
//! any number of `popqc serve --cache-addr` replicas warm one another. A
//! replica whose cache server goes down degrades to local misses (never
//! errors) and resumes hits when it returns.
//!
//! Parallelism runs on the shared `popqc-exec` pool. `POPQC_NUM_THREADS`
//! pins every parallel width (it outranks `--workers` and
//! `--threads-per-job` defaults — see `qexec::resolve_threads`). The
//! executor's counters are reported in `GET /v1/stats` and the `--report`
//! document.
//!
//! `--trace-capacity`/`--trace-slow-ms` tune the request tracer (see
//! `qobs::trace`): the server keeps up to N tail-sampled traces in a
//! ring (`0` disables tracing entirely) and always keeps traces slower
//! than the threshold. `popqc trace <ID|last>` fetches a kept trace from
//! a running server and prints its span tree (`--chrome` emits Chrome
//! `trace_event` JSON for chrome://tracing instead).
//!
//! `--log-level` installs a `popqc-obs` log filter — a bare level
//! (`error|warn|info|debug`) or a full spec with per-target overrides
//! like `info,qexec=debug`. When the flag is absent the `POPQC_LOG`
//! environment variable is honored instead; the default is `info`.

use popqc::prelude::*;
use popqc::service::report::{batch_report, cache_report, job_status, service_report};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         popqc optimize <FILE|DIR>... [--out DIR] [--omega N] [--oracle ID]\n           \
         [--workers N] [--threads-per-job N] [--cache-capacity N]\n           \
         [--seg-cache-capacity N]\n           \
         [--cache-tier memory|disk|tiered|remote|null] [--cache-dir DIR]\n           \
         [--cache-addr HOST:PORT]\n           \
         [--repeat N] [--report FILE] [--json] [--verify] [--quiet]\n           \
         [--log-level error|warn|info|debug]\n  \
         popqc serve [--addr HOST:PORT] [--workers N] [--threads-per-job N]\n           \
         [--omega N] [--oracle ID] [--cache-capacity N] [--seg-cache-capacity N]\n           \
         [--conn-threads N] [--max-conns N]\n           \
         [--rate-limit REQS_PER_SEC] [--shed-queue-depth N]\n           \
         [--cache-tier memory|disk|tiered|remote|null]\n           \
         [--cache-dir DIR] [--cache-addr HOST:PORT]\n           \
         [--trace-capacity N] [--trace-slow-ms MS]\n           \
         [--log-level error|warn|info|debug]\n  \
         popqc trace <ID|last> [--addr HOST:PORT] [--chrome]\n  \
         popqc cached [--addr HOST:PORT] --cache-dir DIR [--cache-tier disk|tiered]\n           \
         [--cache-capacity N] [--max-conns N] [--log-level error|warn|info|debug]\n  \
         popqc cache stats --cache-dir DIR\n  \
         popqc cache clear --cache-dir DIR\n  \
         popqc cache warm <FILE|DIR>... --cache-dir DIR [--omega N] [--oracle ID]\n           \
         [--workers N] [--threads-per-job N]\n  \
         popqc gen --family NAME --qubits N [--seed S] [--out FILE|DIR]\n  \
         popqc oracles\n  \
         popqc families"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("popqc: error: {msg}");
    std::process::exit(1);
}

/// Installs the log filter: the `--log-level` spec when given (a bare
/// level or `target=level` overrides, see `qobs::set_log_filter`), else
/// whatever `POPQC_LOG` says. An unknown level name is a diagnostic and
/// exit 1 listing the accepted names — same refusal style as
/// `--cache-tier`.
fn apply_log_filter(flag: Option<&str>) {
    match flag {
        Some(spec) => qobs::set_log_filter(spec),
        None => qobs::set_log_filter_from_env(),
    }
    .unwrap_or_else(|e| fail(e));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("cached") => cmd_cached(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("oracles") => cmd_oracles(),
        Some("families") => cmd_families(),
        _ => usage(),
    }
}

/// Resolves `--cache-tier`/`--cache-dir`/`--cache-addr` into a built
/// store. An explicit `--cache-dir` without a tier implies `tiered` over
/// disk (the obvious intent: memory-speed hits backed by
/// restart-surviving disk), and a bare `--cache-addr` likewise implies
/// `tiered` over remote. Every misconfiguration is a diagnostic and exit
/// 1, never a panic or a silent ignore: unknown tier names, a persistent
/// tier without a directory, a remote tier without an address, and a
/// directory or address paired with a tier that cannot use it (the user
/// asked for something they would not get).
fn build_cli_store(
    tier: Option<&str>,
    dir: Option<&std::path::Path>,
    addr: Option<&str>,
    capacity: usize,
    shards: usize,
) -> std::sync::Arc<dyn ResultStore> {
    let tier: StoreTier = match tier {
        Some(name) => name.parse().unwrap_or_else(|e: String| fail(e)),
        None if dir.is_some() || addr.is_some() => StoreTier::Tiered,
        None => StoreTier::Memory,
    };
    if dir.is_some()
        && matches!(
            tier,
            StoreTier::Memory | StoreTier::Null | StoreTier::Remote
        )
    {
        fail(format!(
            "cache tier `{tier}` does not persist to --cache-dir (use `disk` or `tiered`, \
             or drop --cache-dir)"
        ));
    }
    if addr.is_some() && !matches!(tier, StoreTier::Remote | StoreTier::Tiered) {
        fail(format!(
            "cache tier `{tier}` does not talk to a cache server (use `remote` or `tiered`, \
             or drop --cache-addr)"
        ));
    }
    build_store(tier, dir, addr, capacity, shards).unwrap_or_else(|e| fail(e))
}

fn cmd_families() -> ExitCode {
    for f in Family::ALL {
        println!("{}", f.name().to_lowercase());
    }
    ExitCode::SUCCESS
}

fn cmd_oracles() -> ExitCode {
    for info in OracleRegistry::builtin().infos() {
        println!(
            "{}{}  {}",
            info.id,
            if info.default { " (default)" } else { "" },
            info.description
        );
    }
    ExitCode::SUCCESS
}

/// The built-in registry with `--oracle` applied as the default id.
/// Accepts the legacy spellings `rule` and `rule-fixpoint` for
/// `rule_based`. Unknown ids fail with the available list.
fn registry_with_default(oracle: &str) -> OracleRegistry {
    let canonical = match oracle {
        "rule" | "rule-fixpoint" => "rule_based",
        other => other,
    };
    let mut registry = OracleRegistry::builtin();
    registry
        .set_default(canonical)
        .unwrap_or_else(|e| fail(format!("{e}; see `popqc oracles`")));
    registry
}

fn parse_family(name: &str) -> Family {
    Family::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            fail(format!(
                "unknown family `{name}` (see `popqc families` for the list)"
            ))
        })
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(v) = value else {
        fail(format!("{flag} requires a value"));
    };
    v.parse()
        .unwrap_or_else(|_| fail(format!("cannot parse {flag} value `{v}`")))
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let mut family: Option<Family> = None;
    let mut qubits: Option<u32> = None;
    let mut seed: u64 = 42;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--family" => {
                family = Some(parse_family(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--qubits" => {
                qubits = Some(parse_num("--qubits", args.get(i + 1)));
                i += 2;
            }
            "--seed" => {
                seed = parse_num("--seed", args.get(i + 1));
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            _ => usage(),
        }
    }
    let (Some(family), Some(qubits)) = (family, qubits) else {
        usage();
    };
    if qubits < family.min_qubits() {
        fail(format!(
            "{} needs at least {} qubits (got {qubits})",
            family.name(),
            family.min_qubits()
        ));
    }
    let circuit = family.generate(qubits, seed);
    let qasm = popqc::ir::qasm::to_qasm(&circuit);
    match out {
        None => {
            print!("{qasm}");
        }
        Some(path) => {
            let path = if path.is_dir() {
                path.join(format!(
                    "{}-{qubits}-s{seed}.qasm",
                    family.name().to_lowercase()
                ))
            } else {
                path
            };
            std::fs::write(&path, qasm)
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
            eprintln!(
                "wrote {} ({} gates, {} qubits)",
                path.display(),
                circuit.len(),
                circuit.num_qubits
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut omega: usize = 200;
    let mut oracle = "rule_based".to_string();
    // The library default keeps the segment cache off; the CLI turns it
    // on (`--seg-cache-capacity 0` opts back out).
    let mut svc_cfg = ServiceConfig {
        seg_cache_capacity: 4096,
        ..ServiceConfig::default()
    };
    let mut net_cfg = popqc::http::EventedConfig::default();
    let mut cache_tier: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_addr: Option<String> = None;
    let mut trace_capacity: usize = 256;
    let mut trace_slow_ms: u64 = 1000;
    let mut log_level: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--log-level" => {
                log_level = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--trace-capacity" => {
                trace_capacity = parse_num("--trace-capacity", args.get(i + 1));
                i += 2;
            }
            "--trace-slow-ms" => {
                trace_slow_ms = parse_num("--trace-slow-ms", args.get(i + 1));
                i += 2;
            }
            "--cache-tier" => {
                cache_tier = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--cache-addr" => {
                cache_addr = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--addr" => {
                addr = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--workers" => {
                svc_cfg.workers = parse_num("--workers", args.get(i + 1));
                i += 2;
            }
            "--threads-per-job" => {
                svc_cfg.threads_per_job = parse_num("--threads-per-job", args.get(i + 1));
                i += 2;
            }
            "--cache-capacity" => {
                svc_cfg.cache_capacity = parse_num("--cache-capacity", args.get(i + 1));
                i += 2;
            }
            "--seg-cache-capacity" => {
                svc_cfg.seg_cache_capacity = parse_num("--seg-cache-capacity", args.get(i + 1));
                i += 2;
            }
            "--conn-threads" => {
                net_cfg.loop_threads = parse_num("--conn-threads", args.get(i + 1));
                i += 2;
            }
            "--max-conns" => {
                net_cfg.max_conns = parse_num("--max-conns", args.get(i + 1));
                i += 2;
            }
            "--rate-limit" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                net_cfg.rate_limit = v.parse::<f64>().unwrap_or_else(|_| {
                    fail(format!("bad --rate-limit `{v}` (need requests/second)"))
                });
                i += 2;
            }
            "--shed-queue-depth" => {
                net_cfg.shed_queue_depth = parse_num("--shed-queue-depth", args.get(i + 1));
                i += 2;
            }
            "--omega" => {
                omega = parse_num("--omega", args.get(i + 1));
                i += 2;
            }
            "--oracle" => {
                oracle = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            _ => usage(),
        }
    }
    if omega == 0 || net_cfg.loop_threads == 0 {
        usage();
    }
    // The filter must be live before the service spins up so startup
    // events (and worker logs) already respect it.
    apply_log_filter(log_level.as_deref());
    // Tracer config before the first request can start a trace.
    qobs::trace::configure(
        trace_capacity,
        std::time::Duration::from_millis(trace_slow_ms),
        16,
    );

    // One dynamically dispatched service over the whole registry: every
    // oracle stays selectable per request, `--oracle` only picks the
    // default for requests that name none. The result store is the one
    // seam `--cache-tier` swaps; nothing else changes between memory,
    // disk, and tiered deployments.
    let store = build_cli_store(
        cache_tier.as_deref(),
        cache_dir.as_deref(),
        cache_addr.as_deref(),
        svc_cfg.cache_capacity,
        svc_cfg.cache_shards,
    );
    let backend = store.stats().backend;
    let seg_cache_capacity = svc_cfg.seg_cache_capacity;
    let svc = OptimizationService::with_store(registry_with_default(&oracle), svc_cfg, store);
    let workers = svc.workers();
    let threads_per_job = svc.threads_per_job();
    let oracle_ids = svc
        .registry()
        .ids()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let default_oracle = svc.registry().default_id().to_string();
    let state = std::sync::Arc::new(popqc::http::AppState::new(svc, omega));
    // The server stays alive until the process dies (dropping it shuts it
    // down).
    let server = popqc::http::EventedServer::serve(&addr, state, net_cfg.clone())
        .unwrap_or_else(|e| fail(format!("cannot bind {addr}: {e}")));
    // The address stays an unquoted `addr=http://…` value so scripts (and
    // the CLI tests) can still extract the resolved ephemeral port by
    // grepping stderr for `http://`.
    qobs::log_info!(
        target: "popqc::serve",
        "listening",
        addr = format_args!("http://{}", server.local_addr()),
        frontend = "evented",
        workers = workers,
        threads_per_job = threads_per_job,
        omega = omega
    );
    qobs::log_info!(
        target: "popqc::serve",
        "admission control",
        max_conns = net_cfg.max_conns,
        rate_limit = net_cfg.rate_limit,
        shed_queue_depth = net_cfg.shed_queue_depth
    );
    qobs::log_info!(
        target: "popqc::serve",
        "oracles",
        available = oracle_ids,
        default = default_oracle
    );
    match (&cache_dir, &cache_addr) {
        (Some(dir), _) => qobs::log_info!(
            target: "popqc::serve",
            "result store",
            backend = backend,
            dir = dir.display()
        ),
        (None, Some(remote)) => qobs::log_info!(
            target: "popqc::serve",
            "result store",
            backend = backend,
            cache_server = remote
        ),
        (None, None) => qobs::log_info!(target: "popqc::serve", "result store", backend = backend),
    }
    match seg_cache_capacity {
        0 => qobs::log_info!(target: "popqc::serve", "segment cache", state = "disabled"),
        cap => qobs::log_info!(target: "popqc::serve", "segment cache", capacity = cap),
    }
    match trace_capacity {
        0 => qobs::log_info!(target: "popqc::serve", "tracing", state = "disabled"),
        cap => qobs::log_info!(
            target: "popqc::serve",
            "tracing",
            capacity = cap,
            slow_ms = trace_slow_ms
        ),
    }
    qobs::log_info!(
        target: "popqc::serve",
        "endpoints",
        routes = "POST /v1/optimize  POST /v1/batch  GET /v1/jobs/{id}  GET /v1/oracles  \
                  GET /v1/stats  GET /v1/metrics  GET|DELETE /v1/cache  GET /v1/traces  \
                  GET /v1/traces/{id}  GET /v1/version  GET /healthz"
    );
    // Serve until the process is killed; the loop threads own the work.
    loop {
        std::thread::park();
    }
}

/// One blocking `GET` against a running server, no HTTP client crate:
/// `Connection: close` + read-to-EOF keeps the framing trivial. Returns
/// `(status, body)`; any transport or parse failure is a diagnostic and
/// exit 1 (the server not running is the common case).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        fail(format!(
            "cannot connect to {addr}: {e} (is `popqc serve` running?)"
        ))
    });
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap_or_else(|e| fail(format!("cannot send request to {addr}: {e}")));
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .unwrap_or_else(|e| fail(format!("cannot read response from {addr}: {e}")));
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        fail(format!("malformed HTTP response from {addr}"));
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| fail(format!("malformed HTTP status line from {addr}")));
    (status, body.to_string())
}

/// `popqc trace <ID|last>` — fetches one kept trace from a running
/// server and prints its span tree (or, with `--chrome`, the Chrome
/// `trace_event` JSON on stdout, ready for chrome://tracing).
fn cmd_trace(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut chrome = false;
    let mut target: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--chrome" => {
                chrome = true;
                i += 1;
            }
            flag if flag.starts_with("--") => usage(),
            id if target.is_none() => {
                target = Some(id.to_string());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(target) = target else { usage() };
    let id = if target == "last" {
        let (status, body) = http_get(&addr, "/v1/traces?limit=1");
        if status != 200 {
            fail(format!("GET /v1/traces answered {status}"));
        }
        let doc = serde_json::from_str(&body)
            .unwrap_or_else(|e| fail(format!("cannot parse trace index: {e}")));
        let index = popqc::api::TraceIndex::from_json(&doc)
            .unwrap_or_else(|e| fail(format!("cannot parse trace index: {e}")));
        match index.traces.first() {
            Some(t) => t.trace_id.clone(),
            None => fail(
                "no traces kept yet (force one with `?trace=1` on POST /v1/optimize, \
                 or lower --trace-slow-ms)",
            ),
        }
    } else {
        target
    };
    let path = if chrome {
        format!("/v1/traces/{id}?format=chrome")
    } else {
        format!("/v1/traces/{id}")
    };
    let (status, body) = http_get(&addr, &path);
    match status {
        200 => {}
        404 => fail(format!(
            "trace {id} not found (not kept by tail sampling, or evicted from the ring)"
        )),
        other => fail(format!("GET {path} answered {other}")),
    }
    if chrome {
        // Raw JSON on stdout: `popqc trace last --chrome > trace.json`,
        // then load trace.json in chrome://tracing.
        println!("{body}");
        return ExitCode::SUCCESS;
    }
    let doc = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(format!("cannot parse trace report: {e}")));
    let report = popqc::api::TraceReport::from_json(&doc)
        .unwrap_or_else(|e| fail(format!("cannot parse trace report: {e}")));
    let ms = |nanos: u64| nanos as f64 / 1e6;
    println!(
        "trace {} status={} kept={} duration={:.3}ms spans={}{}",
        report.trace_id,
        report.status,
        report.sampled_because,
        ms(report.duration_nanos),
        report.spans.len(),
        if report.dropped_spans > 0 {
            format!(" (+{} dropped)", report.dropped_spans)
        } else {
            String::new()
        }
    );
    println!(
        "split: queue={:.3}ms engine={:.3}ms oracle={:.3}ms store={:.3}ms",
        ms(report.queue_nanos),
        ms(report.engine_nanos),
        ms(report.oracle_nanos),
        ms(report.store_nanos)
    );
    print_span_tree(&report.spans, 0, 0);
    ExitCode::SUCCESS
}

/// Prints `spans` as an indented tree under `parent`, children in start
/// order. Orphans (parents lost to the span cap) are simply not printed;
/// the header's dropped count already announces them.
fn print_span_tree(spans: &[popqc::api::TraceSpan], parent: u64, depth: usize) {
    let mut children: Vec<&popqc::api::TraceSpan> = spans
        .iter()
        .filter(|s| s.parent == parent && s.id != parent)
        .collect();
    children.sort_by_key(|s| s.start_nanos);
    for span in children {
        let attrs = span
            .attrs
            .iter()
            .map(|(k, v)| {
                format!(
                    " {k}={}",
                    serde_json::to_string(v).unwrap_or_else(|_| "?".to_string())
                )
            })
            .collect::<String>();
        println!(
            "{:indent$}{} {:.3}ms{}",
            "",
            span.name,
            span.duration_nanos as f64 / 1e6,
            attrs,
            indent = depth * 2
        );
        print_span_tree(spans, span.id, depth + 1);
    }
}

/// `popqc cached` — the shared fleet cache server. Serves the
/// `qsvc::wire` protocol over a disk-backed store at `--cache-dir`
/// (`tiered` by default, so hot entries answer from memory; `disk`
/// serves straight from the files). Replicas point `--cache-addr` here;
/// the tagged entry encoding lets this process refuse stale writes from
/// replicas running an older store format or oracle version.
fn cmd_cached(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7979".to_string();
    let mut cache_tier: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_capacity: usize = 1024;
    let mut server_cfg = CacheServerConfig::default();
    let mut log_level: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--cache-tier" => {
                cache_tier = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--cache-capacity" => {
                cache_capacity = parse_num("--cache-capacity", args.get(i + 1));
                i += 2;
            }
            "--max-conns" => {
                server_cfg.max_conns = parse_num("--max-conns", args.get(i + 1));
                i += 2;
            }
            "--log-level" => {
                log_level = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            _ => usage(),
        }
    }
    apply_log_filter(log_level.as_deref());
    let Some(cache_dir) = cache_dir else {
        fail("--cache-dir is required (the cache server is the fleet's persistent tier)");
    };
    // The server *is* the authoritative tier, so it must persist: only
    // disk-backed tiers make sense here (serving `remote` would chain
    // cache servers, and `memory` would silently drop the fleet's
    // warmth on restart).
    let tier: StoreTier = match cache_tier.as_deref() {
        None => StoreTier::Tiered,
        Some(name) => match name.parse().unwrap_or_else(|e: String| fail(e)) {
            t @ (StoreTier::Disk | StoreTier::Tiered) => t,
            t => fail(format!(
                "cache tier `{t}` cannot back a cache server (use `disk` or `tiered`)"
            )),
        },
    };
    let store =
        build_store(tier, Some(&cache_dir), None, cache_capacity, 0).unwrap_or_else(|e| fail(e));
    let backend = store.stats().backend;
    let entries = store.len();
    let server = CacheServer::serve(&addr, store, server_cfg)
        .unwrap_or_else(|e| fail(format!("cannot bind {addr}: {e}")));
    // Like `serve`, the address stays an unquoted `addr=…` value so
    // scripts can grep the resolved ephemeral port from stderr.
    qobs::log_info!(
        target: "popqc::cached",
        "cache server listening",
        addr = server.local_addr(),
        backend = backend,
        dir = cache_dir.display(),
        entries = entries
    );
    // Serve until the process is killed; the acceptor thread owns the work.
    loop {
        std::thread::park();
    }
}

/// `popqc cache {stats,clear,warm}` — admin access to the *persistent*
/// tier. `stats` and `clear` open the disk store at `--cache-dir`
/// directly (the memory tiers of running services are per-process and
/// reachable over `GET /v1/cache` instead); `warm` pre-populates the disk
/// tier by optimizing a directory of circuits through a service backed by
/// it.
fn cmd_cache(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("stats") => cmd_cache_stats(&args[1..]),
        Some("clear") => cmd_cache_clear(&args[1..]),
        Some("warm") => cmd_cache_warm(&args[1..]),
        _ => usage(),
    }
}

/// Parses the one flag `stats`/`clear` take and opens the disk store.
fn open_disk_store(args: &[String]) -> DiskStore {
    let mut dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(dir) = dir else {
        fail("--cache-dir is required");
    };
    if !dir.is_dir() {
        fail(format!("cache dir {} does not exist", dir.display()));
    }
    DiskStore::open(&dir).unwrap_or_else(|e| fail(format!("cannot open {}: {e}", dir.display())))
}

fn cmd_cache_stats(args: &[String]) -> ExitCode {
    let store = open_disk_store(args);
    let report = cache_report(&store.stats());
    // Human-readable summary on stderr; stdout stays the machine-parsable
    // JSON document (scripts pipe it), same split as the log lines.
    eprintln!(
        "cache: backend={} entries={} hits={} misses={} evictions={} bytes={}",
        report.backend, report.entries, report.hits, report.misses, report.evictions, report.bytes
    );
    eprintln!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>12} {:>7}",
        "tier", "entries", "hits", "misses", "evictions", "bytes", "errors"
    );
    for t in &report.tiers {
        eprintln!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>12} {:>7}",
            t.tier, t.entries, t.hits, t.misses, t.evictions, t.bytes, t.errors
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report.to_json()).expect("serialize cache report")
    );
    ExitCode::SUCCESS
}

fn cmd_cache_clear(args: &[String]) -> ExitCode {
    let store = open_disk_store(args);
    let removed = ResultStore::clear(&store);
    let doc = popqc::api::CacheClearResponse {
        cleared: true,
        entries_removed: removed,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&doc.to_json()).expect("serialize clear response")
    );
    ExitCode::SUCCESS
}

fn cmd_cache_warm(args: &[String]) -> ExitCode {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut cache_dir: Option<PathBuf> = None;
    let mut omega: usize = 200;
    let mut oracle = "rule_based".to_string();
    let mut svc_cfg = ServiceConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--omega" => {
                omega = parse_num("--omega", args.get(i + 1));
                i += 2;
            }
            "--oracle" => {
                oracle = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--workers" => {
                svc_cfg.workers = parse_num("--workers", args.get(i + 1));
                i += 2;
            }
            "--threads-per-job" => {
                svc_cfg.threads_per_job = parse_num("--threads-per-job", args.get(i + 1));
                i += 2;
            }
            flag if flag.starts_with("--") => usage(),
            path => {
                inputs.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    if inputs.is_empty() || omega == 0 {
        usage();
    }
    let Some(cache_dir) = cache_dir else {
        fail("--cache-dir is required");
    };

    let files = collect_qasm_files(&inputs);
    let mut circuits = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        circuits.push(
            popqc::ir::qasm::parse(&src)
                .unwrap_or_else(|e| fail(format!("{}: {e}", path.display()))),
        );
    }

    // Warm straight into the persistent tier: disk-only, so every entry
    // lands in the directory (a memory front would only help this
    // short-lived process).
    let store =
        build_store(StoreTier::Disk, Some(&cache_dir), None, 0, 0).unwrap_or_else(|e| fail(e));
    let svc = OptimizationService::with_store(registry_with_default(&oracle), svc_cfg, store);
    let batch = svc
        .submit_batch(circuits, &PopqcConfig::with_omega(omega))
        .wait();
    for (path, result) in files.iter().zip(&batch.results) {
        if let Some(err) = &result.error {
            fail(format!("{}: {err}", path.display()));
        }
    }
    eprintln!(
        "warmed {} circuits into {} ({} oracle calls, {} already cached)",
        batch.results.len(),
        cache_dir.display(),
        batch.oracle_calls_issued(),
        batch.cache_hits(),
    );
    let doc = cache_report(&svc.store().stats()).to_json();
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("serialize cache report")
    );
    ExitCode::SUCCESS
}

struct OptimizeOpts {
    inputs: Vec<PathBuf>,
    out_dir: Option<PathBuf>,
    omega: usize,
    oracle: String,
    workers: usize,
    threads_per_job: usize,
    cache_capacity: usize,
    seg_cache_capacity: usize,
    cache_tier: Option<String>,
    cache_dir: Option<PathBuf>,
    cache_addr: Option<String>,
    repeat: usize,
    report: Option<PathBuf>,
    json: bool,
    verify: bool,
    quiet: bool,
    log_level: Option<String>,
}

fn parse_optimize_opts(args: &[String]) -> OptimizeOpts {
    let mut o = OptimizeOpts {
        inputs: Vec::new(),
        out_dir: None,
        omega: 200,
        oracle: "rule_based".to_string(),
        workers: 0,
        threads_per_job: 0,
        cache_capacity: 1024,
        // On by default at the CLI surface (the library default is off);
        // `--seg-cache-capacity 0` opts out.
        seg_cache_capacity: 4096,
        cache_tier: None,
        cache_dir: None,
        cache_addr: None,
        repeat: 1,
        report: None,
        json: false,
        verify: false,
        quiet: false,
        log_level: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--log-level" => {
                o.log_level = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--out" => {
                o.out_dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--omega" => {
                o.omega = parse_num("--omega", args.get(i + 1));
                i += 2;
            }
            "--oracle" => {
                o.oracle = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--workers" => {
                o.workers = parse_num("--workers", args.get(i + 1));
                i += 2;
            }
            "--threads-per-job" => {
                o.threads_per_job = parse_num("--threads-per-job", args.get(i + 1));
                i += 2;
            }
            "--cache-capacity" => {
                o.cache_capacity = parse_num("--cache-capacity", args.get(i + 1));
                i += 2;
            }
            "--seg-cache-capacity" => {
                o.seg_cache_capacity = parse_num("--seg-cache-capacity", args.get(i + 1));
                i += 2;
            }
            "--cache-tier" => {
                o.cache_tier = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--cache-dir" => {
                o.cache_dir = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--cache-addr" => {
                o.cache_addr = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--repeat" => {
                o.repeat = parse_num("--repeat", args.get(i + 1));
                i += 2;
            }
            "--report" => {
                o.report = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--json" => {
                o.json = true;
                i += 1;
            }
            "--verify" => {
                o.verify = true;
                i += 1;
            }
            "--quiet" => {
                o.quiet = true;
                i += 1;
            }
            flag if flag.starts_with("--") => usage(),
            path => {
                o.inputs.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    if o.inputs.is_empty() || o.omega == 0 || o.repeat == 0 {
        usage();
    }
    o
}

/// Expands files/directories into a sorted list of `.qasm` files.
fn collect_qasm_files(inputs: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let entries = std::fs::read_dir(input)
                .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", input.display())));
            for entry in entries {
                let path = entry
                    .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", input.display())))
                    .path();
                if path.extension().is_some_and(|x| x == "qasm") {
                    files.push(path);
                }
            }
        } else {
            files.push(input.clone());
        }
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        fail("no .qasm files found in the given paths");
    }
    files
}

fn cmd_optimize(args: &[String]) -> ExitCode {
    let opts = parse_optimize_opts(args);
    apply_log_filter(opts.log_level.as_deref());
    let files = collect_qasm_files(&opts.inputs);

    // Outputs are written under --out by basename; two inputs sharing one
    // would silently clobber each other, so reject that up front.
    if opts.out_dir.is_some() {
        let mut names = std::collections::HashSet::new();
        for path in &files {
            let name = path
                .file_name()
                .map(|n| n.to_os_string())
                .unwrap_or_default();
            if !names.insert(name.clone()) {
                fail(format!(
                    "two inputs share the file name `{}`; outputs under --out would \
                     overwrite each other (rename one or run separate batches)",
                    name.to_string_lossy()
                ));
            }
        }
    }

    // Parse every input up front so a malformed file fails fast.
    let mut labels = Vec::new();
    let mut circuits = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        let circuit = popqc::ir::qasm::parse(&src)
            .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        labels.push(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
        );
        circuits.push(circuit);
    }

    let cfg = PopqcConfig::with_omega(opts.omega);
    let svc_cfg = ServiceConfig {
        workers: opts.workers,
        threads_per_job: opts.threads_per_job,
        cache_capacity: opts.cache_capacity,
        seg_cache_capacity: opts.seg_cache_capacity,
        ..ServiceConfig::default()
    };

    // One dynamically dispatched service; the oracle is a per-request
    // registry id, with `--oracle` applied as the default, and the result
    // store chosen by `--cache-tier`/`--cache-dir` (a disk or tiered
    // store makes `--repeat`-style warm passes survive across runs).
    let store = build_cli_store(
        opts.cache_tier.as_deref(),
        opts.cache_dir.as_deref(),
        opts.cache_addr.as_deref(),
        svc_cfg.cache_capacity,
        svc_cfg.cache_shards,
    );
    let svc = OptimizationService::with_store(registry_with_default(&opts.oracle), svc_cfg, store);
    let report = run_batches(svc, &labels, &circuits, &cfg, &opts, &files);

    if let Some(report_path) = &opts.report {
        let text = serde_json::to_string_pretty(&report.to_json()).expect("serialize report");
        std::fs::write(report_path, text)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", report_path.display())));
        if !opts.quiet {
            eprintln!("report written to {}", report_path.display());
        }
    }
    ExitCode::SUCCESS
}

fn run_batches(
    svc: OptimizationService,
    labels: &[String],
    circuits: &[Circuit],
    cfg: &PopqcConfig,
    opts: &OptimizeOpts,
    files: &[PathBuf],
) -> popqc::api::ServiceReport {
    let mut passes = Vec::new();
    let mut last: Option<BatchResult> = None;
    for pass in 1..=opts.repeat {
        let batch = svc.submit_batch(circuits.iter().cloned(), cfg).wait();
        if !opts.quiet {
            let (gates_in, gates_out) = batch.gate_totals();
            eprintln!(
                "pass {pass}: {} jobs in {:.3}s ({:.1} jobs/s) — {} cache hits, \
                 {} oracle calls, {} -> {} gates",
                batch.results.len(),
                batch.wall_nanos as f64 / 1e9,
                batch.jobs_per_sec(),
                batch.cache_hits(),
                batch.oracle_calls_issued(),
                gates_in,
                gates_out,
            );
        }
        passes.push(batch_report(labels, &batch, pass, false));
        last = Some(batch);
    }
    let batch = last.expect("at least one pass");

    // `--json`: one JobStatus document per job on stdout — the identical
    // DTO (same adapter, same serializer) the HTTP frontend answers with
    // for the same job, ids assigned in submission order like the server.
    if opts.json {
        for (i, (label, result)) in labels.iter().zip(&batch.results).enumerate() {
            let doc = job_status(i as u64 + 1, Some(label), result.stats.rounds, Some(result));
            println!(
                "{}",
                serde_json::to_string(&doc.to_json()).expect("serialize job document")
            );
        }
    }

    // A failed job (oracle panic) carries its *input* circuit, not an
    // optimized one — writing that under --out or exiting 0 would pass
    // the input off as a result.
    for (label, result) in labels.iter().zip(&batch.results) {
        if let Some(err) = &result.error {
            fail(format!("{label}: {err}"));
        }
    }

    // Write optimized QASM under --out, preserving file names.
    if let Some(out_dir) = &opts.out_dir {
        std::fs::create_dir_all(out_dir)
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", out_dir.display())));
        for (path, result) in files.iter().zip(&batch.results) {
            let name = path.file_name().expect("qasm file name");
            let out_path = out_dir.join(name);
            std::fs::write(&out_path, popqc::ir::qasm::to_qasm(&result.circuit))
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", out_path.display())));
        }
        if !opts.quiet {
            eprintln!(
                "wrote {} optimized circuits to {}",
                batch.results.len(),
                out_dir.display()
            );
        }
    }

    // Optional semantic verification on simulator-sized circuits.
    if opts.verify {
        let mut verified = 0;
        let mut skipped = 0;
        for ((label, input), result) in labels.iter().zip(circuits).zip(&batch.results) {
            if input.num_qubits <= 12 && input.len() <= 60_000 {
                if !popqc::sim::circuits_equivalent(input, &result.circuit, 2, 0xC1C1) {
                    fail(format!("{label}: optimized circuit is NOT equivalent"));
                }
                verified += 1;
            } else {
                skipped += 1;
            }
        }
        if !opts.quiet {
            eprintln!("verify: {verified} equivalence-checked, {skipped} too large (skipped)");
        }
    }

    let stats = svc.stats();
    service_report(passes, &stats, svc.workers(), svc.threads_per_job())
}
