//! The `popqc` CLI: batch-optimize QASM circuits through the optimization
//! service. Every subcommand's flags are rows of one table, [`COMMANDS`];
//! `popqc` alone prints the synopsis generated from it.
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
//! engine hot path, keyed angle-abstractly, for angle-independent oracles
//! (`structural`) only, so parameterized resubmissions reuse every
//! structurally-unchanged segment's rewrite without new oracle calls.
//! Jobs on any other oracle never consult it. The CLI default is 4096
//! entries; `0` disables it.
//!
//! `--cache-capacity`/`--cache-dir`/`--cache-addr` compose the result
//! store (see `qsvc::store::compose_store`): a memory front of
//! `--cache-capacity` entries (none at 0) over a directory, which makes
//! warm starts survive process restarts, or over one `popqc cached`
//! server shared across a replica fleet. `popqc cache
//! {stats,clear,warm}` administers a cache directory offline.
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

use popqc::http::EventedConfig;
use popqc::prelude::*;
use popqc::service::report::{batch_report, job_status, service_report};
use popqc::service::CACHE_SHARDS;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One accepted flag: its name and its value's placeholder (`""` for a
/// switch).
type Flag = (&'static str, &'static str);

// Flags more than one subcommand accepts.
const ADDR: Flag = ("--addr", "HOST:PORT");
const OUT: Flag = ("--out", "PATH");
const CACHE_DIR: Flag = ("--cache-dir", "DIR");
const CACHE_CAPACITY: Flag = ("--cache-capacity", "N");
const MAX_CONNS: Flag = ("--max-conns", "N");
const LOG_LEVEL: Flag = ("--log-level", "error|warn|info|debug");

/// The engine group: Ω, the default oracle and the service's shape.
#[rustfmt::skip]
const ENGINE: &[Flag] = &[
    ("--omega", "N"), ("--oracle", "ID"), ("--workers", "N"), ("--threads-per-job", "N"),
];

/// The store group: the result store and the segment cache.
#[rustfmt::skip]
const STORE: &[Flag] = &[
    CACHE_CAPACITY, ("--seg-cache-capacity", "N"), CACHE_DIR, ("--cache-addr", "HOST:PORT"),
];

/// A subcommand: the words that name it, its operand (`""` for none, a
/// trailing `...` for one or more), the flags it cannot run without, the
/// flag groups it accepts besides, and what it runs.
struct Command {
    name: &'static str,
    operand: &'static str,
    required: &'static [Flag],
    groups: &'static [&'static [Flag]],
    run: fn(Settings) -> ExitCode,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        let optional = self.groups.iter().copied().flatten();
        self.required.iter().chain(optional).copied()
    }
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "optimize", operand: "<FILE|DIR>...", required: &[], run: cmd_optimize,
              groups: &[ENGINE, STORE, &[OUT, ("--repeat", "N"), ("--report", "FILE"), ("--json", ""),
                        ("--verify", ""), ("--quiet", ""), LOG_LEVEL]] },
    Command { name: "serve", operand: "", required: &[], run: cmd_serve,
              groups: &[&[ADDR], ENGINE, STORE, &[("--conn-threads", "N"), MAX_CONNS,
                        ("--rate-limit", "REQS_PER_SEC"), ("--shed-queue-depth", "N"),
                        ("--trace-capacity", "N"), ("--trace-slow-ms", "MS"), LOG_LEVEL]] },
    Command { name: "trace", operand: "<ID|last>", required: &[],
              groups: &[&[ADDR, ("--chrome", "")]], run: cmd_trace },
    Command { name: "cached", operand: "", required: &[CACHE_DIR],
              groups: &[&[ADDR, CACHE_CAPACITY, MAX_CONNS, LOG_LEVEL]], run: cmd_cached },
    Command { name: "cache stats", operand: "", required: &[CACHE_DIR],
              groups: &[], run: cmd_cache_stats },
    Command { name: "cache clear", operand: "", required: &[CACHE_DIR],
              groups: &[], run: cmd_cache_clear },
    Command { name: "cache warm", operand: "<FILE|DIR>...", required: &[CACHE_DIR],
              groups: &[ENGINE], run: cmd_cache_warm },
    Command { name: "gen", operand: "", required: &[("--family", "NAME"), ("--qubits", "N")],
              groups: &[&[("--seed", "S"), OUT]], run: cmd_gen },
    Command { name: "oracles", operand: "", required: &[], groups: &[], run: cmd_oracles },
    Command { name: "families", operand: "", required: &[], groups: &[], run: cmd_families },
];

/// Where `serve` listens and `trace` connects by default.
const SERVE_ADDR: &str = "127.0.0.1:7878";

/// Why a command line was refused: a shape no table accepts (print the
/// usage, exit 2) or a value that does not parse (exit 1).
#[derive(Debug, PartialEq)]
enum CliError {
    Usage,
    Fail(String),
}

/// The flags one command line gave: the last value of each (`""` for a
/// switch).
struct Matches(HashMap<&'static str, String>);

impl Matches {
    /// The flag's value parsed as `T`, if the flag was given.
    fn opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        debug_assert!(COMMANDS.iter().any(|c| c.flags().any(|f| f.0 == flag)));
        let Some(v) = self.0.get(flag) else {
            return Ok(None);
        };
        let parsed = v.parse().map(Some);
        parsed.map_err(|_| CliError::Fail(format!("cannot parse {flag} value `{v}`")))
    }

    /// Overwrites `slot` with the flag's value, if the flag was given.
    fn set<T: std::str::FromStr>(&self, flag: &str, slot: &mut T) -> Result<(), CliError> {
        if let Some(v) = self.opt(flag)? {
            *slot = v;
        }
        Ok(())
    }
}

/// What one command line sets: a field per flag, each at its default
/// unless given. The engine and store groups resolve into Ω, the oracle,
/// a [`ServiceConfig`] and the store choice; the `serve` and `cached`
/// knobs into their servers' configs. A subcommand's table decides which
/// flags can reach it.
struct Settings {
    operands: Vec<String>,
    omega: usize,
    /// `None` keeps the registry's own default oracle.
    oracle: Option<String>,
    service: ServiceConfig,
    cache_dir: Option<PathBuf>,
    cache_addr: Option<String>,
    addr: Option<String>,
    out: Option<PathBuf>,
    repeat: usize,
    report: Option<PathBuf>,
    json: bool,
    verify: bool,
    quiet: bool,
    chrome: bool,
    log_level: Option<String>,
    net: EventedConfig,
    cache_server: CacheServerConfig,
    trace_capacity: usize,
    trace_slow_ms: u64,
    family: String,
    qubits: u32,
    seed: u64,
}

/// Finds the subcommand `args` names, matches the rest against its table
/// and resolves the settings, without touching the file system, the
/// network or the process.
fn parse(args: &[String]) -> Result<(&'static Command, Settings), CliError> {
    let cmd = COMMANDS
        .iter()
        .find(|cmd| {
            let mut words = cmd.name.split(' ').enumerate();
            words.all(|(i, word)| args.get(i).is_some_and(|arg| arg == word))
        })
        .ok_or(CliError::Usage)?;
    let mut values = HashMap::new();
    let mut operands = Vec::new();
    let mut rest = args[cmd.name.split(' ').count()..].iter();
    while let Some(arg) = rest.next() {
        match cmd.flags().find(|(name, _)| name == arg) {
            Some((name, "")) => {
                values.insert(name, String::new());
            }
            Some((name, _)) => {
                let value = rest.next().ok_or(CliError::Usage)?;
                values.insert(name, value.clone());
            }
            None if arg.starts_with("--") || cmd.operand.is_empty() => return Err(CliError::Usage),
            None => operands.push(arg.clone()),
        }
    }
    let many = cmd.operand.ends_with("...");
    if !cmd.operand.is_empty() && (operands.is_empty() || operands.len() > 1 && !many) {
        return Err(CliError::Usage);
    }
    if let Some((flag, _)) = cmd.required.iter().find(|(f, _)| !values.contains_key(f)) {
        return Err(CliError::Fail(format!("{flag} is required")));
    }
    let m = Matches(values);
    // The library keeps the segment cache off; the CLI turns it on
    // (`--seg-cache-capacity 0` opts back out).
    let mut service = ServiceConfig {
        seg_cache_capacity: 4096,
        ..ServiceConfig::default()
    };
    m.set("--workers", &mut service.workers)?;
    m.set("--threads-per-job", &mut service.threads_per_job)?;
    m.set("--cache-capacity", &mut service.cache_capacity)?;
    m.set("--seg-cache-capacity", &mut service.seg_cache_capacity)?;
    let mut net = EventedConfig::default();
    m.set("--conn-threads", &mut net.loop_threads)?;
    m.set("--rate-limit", &mut net.rate_limit)?;
    m.set("--shed-queue-depth", &mut net.shed_queue_depth)?;
    // `--max-conns` caps whichever server the subcommand runs.
    let mut cache_server = CacheServerConfig::default();
    if let Some(cap) = m.opt("--max-conns")? {
        (net.max_conns, cache_server.max_conns) = (cap, cap);
    }
    let s = Settings {
        operands,
        omega: m.opt("--omega")?.unwrap_or(200),
        oracle: m.opt("--oracle")?,
        service,
        cache_dir: m.opt("--cache-dir")?,
        cache_addr: m.opt("--cache-addr")?,
        addr: m.opt("--addr")?,
        out: m.opt("--out")?,
        repeat: m.opt("--repeat")?.unwrap_or(1),
        report: m.opt("--report")?,
        json: m.0.contains_key("--json"),
        verify: m.0.contains_key("--verify"),
        quiet: m.0.contains_key("--quiet"),
        chrome: m.0.contains_key("--chrome"),
        log_level: m.opt("--log-level")?,
        net,
        cache_server,
        trace_capacity: m.opt("--trace-capacity")?.unwrap_or(256),
        trace_slow_ms: m.opt("--trace-slow-ms")?.unwrap_or(1000),
        family: m.opt("--family")?.unwrap_or_default(),
        qubits: m.opt("--qubits")?.unwrap_or_default(),
        seed: m.opt("--seed")?.unwrap_or(42),
    };
    if s.net.max_conns == 0 {
        return Err(CliError::Fail("--max-conns must be at least 1".into()));
    }
    if s.omega == 0 || s.repeat == 0 || s.net.loop_threads == 0 {
        return Err(CliError::Usage);
    }
    Ok((cmd, s))
}

/// Prints the synopsis of every subcommand, generated from [`COMMANDS`]
/// (required flags bare, the rest in brackets), and exits 2.
fn usage() -> ! {
    let bare = |(name, value): Flag| format!("{name} {value}").trim_end().to_string();
    let mut text = String::from("usage:");
    for cmd in COMMANDS {
        let mut line = format!("  popqc {}", bare((cmd.name, cmd.operand)));
        let optional = cmd.groups.iter().copied().flatten();
        let optional = optional.map(|&flag| format!("[{}]", bare(flag)));
        for word in cmd.required.iter().map(|&flag| bare(flag)).chain(optional) {
            if line.len() + word.len() >= 78 {
                text = text + "\n" + &line;
                line = " ".repeat(10);
            }
            line = line + " " + &word;
        }
        text = text + "\n" + &line;
    }
    eprintln!("{text}");
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("popqc: error: {msg}");
    std::process::exit(1);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((cmd, settings)) => (cmd.run)(settings),
        Err(CliError::Usage) => usage(),
        Err(CliError::Fail(msg)) => fail(msg),
    }
}

/// Installs the log filter: the `--log-level` spec when given (a bare
/// level or `target=level` overrides, see `qobs::set_log_filter`), else
/// whatever `POPQC_LOG` says. An unknown level name is a diagnostic and
/// exit 1 listing the accepted names.
fn apply_log_filter(flag: Option<&str>) {
    match flag {
        Some(spec) => qobs::set_log_filter(spec),
        None => qobs::set_log_filter_from_env(),
    }
    .unwrap_or_else(|e| fail(e));
}

/// The service the engine and store groups describe: the built-in
/// registry with `--oracle` as its default, over the store
/// [`compose_store`] builds from `--cache-capacity`, `--cache-dir` and
/// `--cache-addr`. Unknown oracle ids, and both back flags at once, fail
/// with a diagnostic.
fn build_service(s: &Settings) -> OptimizationService {
    let mut registry = OracleRegistry::builtin();
    if let Some(id) = &s.oracle {
        registry
            .set_default(id)
            .unwrap_or_else(|e| fail(format!("{e}; see `popqc oracles`")));
    }
    let (dir, addr) = (s.cache_dir.as_deref(), s.cache_addr.as_deref());
    let store = compose_store(dir, addr, s.service.cache_capacity, CACHE_SHARDS)
        .unwrap_or_else(|e| fail(e));
    OptimizationService::with_store(registry, s.service.clone(), store)
}

fn cmd_families(_: Settings) -> ExitCode {
    for f in Family::ALL {
        println!("{}", f.name().to_lowercase());
    }
    ExitCode::SUCCESS
}

fn cmd_oracles(_: Settings) -> ExitCode {
    for info in OracleRegistry::builtin().infos() {
        let mark = if info.default { " (default)" } else { "" };
        println!("{}{mark}  {}", info.id, info.description);
    }
    ExitCode::SUCCESS
}

fn cmd_gen(s: Settings) -> ExitCode {
    let (name, qubits, seed) = (&s.family, s.qubits, s.seed);
    let named = |family: &Family| family.name().eq_ignore_ascii_case(name);
    let Some(family) = Family::ALL.into_iter().find(named) else {
        fail(format!(
            "unknown family `{name}` (see `popqc families` for the list)"
        ));
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
    match s.out {
        None => print!("{qasm}"),
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

fn cmd_serve(s: Settings) -> ExitCode {
    // The filter must be live before the service spins up so startup
    // events (and worker logs) already respect it.
    apply_log_filter(s.log_level.as_deref());
    // Tracer config before the first request can start a trace.
    let slow = std::time::Duration::from_millis(s.trace_slow_ms);
    qobs::trace::configure(s.trace_capacity, slow, 16);

    // One dynamically dispatched service over the whole registry: every
    // oracle stays selectable per request, `--oracle` only picks the
    // default for requests that name none. The result store is the one
    // seam the cache flags compose; nothing else changes between memory,
    // disk, remote and tiered deployments.
    let svc = build_service(&s);
    let backend = svc.store().stats().backend;
    let (workers, threads_per_job) = (svc.workers(), svc.threads_per_job());
    let oracle_ids = svc.registry().ids().join(", ");
    let default_oracle = svc.registry().default_id().to_string();
    let (addr, net) = (s.addr.as_deref().unwrap_or(SERVE_ADDR), &s.net);
    let state = std::sync::Arc::new(popqc::http::AppState::new(svc, s.omega));
    // The server stays alive until the process dies (dropping it shuts it
    // down).
    let server = popqc::http::EventedServer::serve(addr, state, net.clone())
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
        omega = s.omega
    );
    qobs::log_info!(
        target: "popqc::serve",
        "admission control",
        max_conns = net.max_conns,
        rate_limit = net.rate_limit,
        shed_queue_depth = net.shed_queue_depth
    );
    qobs::log_info!(
        target: "popqc::serve",
        "oracles",
        available = oracle_ids,
        default = default_oracle
    );
    match (&s.cache_dir, &s.cache_addr) {
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
    match s.service.seg_cache_capacity {
        0 => qobs::log_info!(target: "popqc::serve", "segment cache", state = "disabled"),
        cap => qobs::log_info!(target: "popqc::serve", "segment cache", capacity = cap),
    }
    match s.trace_capacity {
        0 => qobs::log_info!(target: "popqc::serve", "tracing", state = "disabled"),
        cap => qobs::log_info!(
            target: "popqc::serve",
            "tracing",
            capacity = cap,
            slow_ms = s.trace_slow_ms
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
fn cmd_trace(s: Settings) -> ExitCode {
    let (addr, chrome) = (s.addr.as_deref().unwrap_or(SERVE_ADDR), s.chrome);
    let id = if s.operands[0] == "last" {
        let (status, body) = http_get(addr, "/v1/traces?limit=1");
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
        s.operands[0].clone()
    };
    let format = if chrome { "?format=chrome" } else { "" };
    let path = format!("/v1/traces/{id}{format}");
    let (status, body) = http_get(addr, &path);
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
    let dropped = match report.dropped_spans {
        0 => String::new(),
        n => format!(" (+{n} dropped)"),
    };
    println!(
        "trace {} status={} kept={} duration={:.3}ms spans={}{dropped}",
        report.trace_id,
        report.status,
        report.sampled_because,
        ms(report.duration_nanos),
        report.spans.len(),
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
/// `qsvc::wire` protocol over a disk-backed store at `--cache-dir`, with
/// a memory front of `--cache-capacity` entries so hot entries answer
/// from memory (`--cache-capacity 0` serves straight from the files).
/// Replicas point `--cache-addr` here; the tagged entry encoding lets
/// this process refuse stale writes from replicas running an older store
/// format or oracle version.
fn cmd_cached(s: Settings) -> ExitCode {
    apply_log_filter(s.log_level.as_deref());
    // The server *is* the authoritative tier, so it always persists: the
    // required `--cache-dir` is its back, and it takes no `--cache-addr`.
    let cache_dir = s.cache_dir.as_deref().expect("--cache-dir is required");
    let capacity = s.service.cache_capacity;
    let store =
        compose_store(Some(cache_dir), None, capacity, CACHE_SHARDS).unwrap_or_else(|e| fail(e));
    let backend = store.stats().backend;
    let entries = store.len();
    let addr = s.addr.as_deref().unwrap_or("127.0.0.1:7979");
    let server = CacheServer::serve(addr, store, s.cache_server.clone())
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
    // Serve until the process is killed; the server's threads own the work.
    loop {
        std::thread::park();
    }
}

/// `popqc cache {stats,clear}` open the disk store at `--cache-dir`
/// directly: the memory tiers of running services are per-process and
/// reachable over `GET /v1/cache` instead.
fn open_disk_store(s: &Settings) -> DiskStore {
    let dir = s.cache_dir.as_deref().expect("--cache-dir is required");
    if !dir.is_dir() {
        fail(format!("cache dir {} does not exist", dir.display()));
    }
    DiskStore::open(dir).unwrap_or_else(|e| fail(format!("cannot open {}: {e}", dir.display())))
}

fn cmd_cache_stats(s: Settings) -> ExitCode {
    let report = open_disk_store(&s).stats();
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

fn cmd_cache_clear(s: Settings) -> ExitCode {
    let doc = popqc::api::CacheClearResponse {
        cleared: true,
        entries_removed: ResultStore::clear(&open_disk_store(&s)),
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&doc.to_json()).expect("serialize clear response")
    );
    ExitCode::SUCCESS
}

/// `popqc cache warm` pre-populates the disk tier by optimizing circuits
/// through a service backed by it.
fn cmd_cache_warm(mut s: Settings) -> ExitCode {
    let files = collect_qasm_files(&s.operands);
    let circuits = read_circuits(&files);
    // Warm straight into the persistent tier: no memory front, so every
    // entry lands in the directory (a front would only help this
    // short-lived process).
    s.service.cache_capacity = 0;
    let svc = build_service(&s);
    let batch = svc
        .submit_batch(circuits, &PopqcConfig::with_omega(s.omega))
        .wait();
    for (path, result) in files.iter().zip(&batch.results) {
        if let Some(err) = &result.error {
            fail(format!("{}: {err}", path.display()));
        }
    }
    let dir = s.cache_dir.as_deref().expect("--cache-dir is required");
    eprintln!(
        "warmed {} circuits into {} ({} oracle calls, {} already cached)",
        batch.results.len(),
        dir.display(),
        batch.oracle_calls_issued(),
        batch.cache_hits(),
    );
    let doc = svc.store().stats().to_json();
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("serialize cache report")
    );
    ExitCode::SUCCESS
}

/// Expands files/directories into a sorted list of `.qasm` files.
fn collect_qasm_files(inputs: &[String]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for input in inputs.iter().map(Path::new) {
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
            files.push(input.to_path_buf());
        }
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        fail("no .qasm files found in the given paths");
    }
    files
}

/// Parses every file up front, so a malformed one fails fast, named.
fn read_circuits(files: &[PathBuf]) -> Vec<Circuit> {
    let read = |path: &PathBuf| {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        popqc::ir::qasm::parse(&src).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())))
    };
    files.iter().map(read).collect()
}

fn cmd_optimize(s: Settings) -> ExitCode {
    apply_log_filter(s.log_level.as_deref());
    let files = collect_qasm_files(&s.operands);

    // Outputs are written under --out by basename; two inputs sharing one
    // would silently clobber each other, so reject that up front.
    if s.out.is_some() {
        let mut seen = std::collections::HashSet::new();
        let mut names = files.iter().filter_map(|path| path.file_name());
        if let Some(name) = names.find(|name| !seen.insert(*name)) {
            fail(format!(
                "two inputs share the file name `{}`; outputs under --out would \
                 overwrite each other (rename one or run separate batches)",
                name.to_string_lossy()
            ));
        }
    }
    let circuits = read_circuits(&files);
    let label = |path: &PathBuf| match path.file_name() {
        Some(name) => name.to_string_lossy().into_owned(),
        None => path.display().to_string(),
    };
    let labels: Vec<String> = files.iter().map(label).collect();

    // One dynamically dispatched service; the oracle is a per-request
    // registry id, with `--oracle` applied as the default, and the result
    // store composed from the cache flags (a `--cache-dir` back makes
    // `--repeat`-style warm passes survive across runs).
    let svc = build_service(&s);
    let cfg = PopqcConfig::with_omega(s.omega);
    let mut passes = Vec::new();
    let mut last: Option<BatchResult> = None;
    for pass in 1..=s.repeat {
        let batch = svc.submit_batch(circuits.iter().cloned(), &cfg).wait();
        if !s.quiet {
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
        passes.push(batch_report(&labels, &batch, pass, false));
        last = Some(batch);
    }
    let batch = last.expect("at least one pass");

    // `--json`: one JobStatus document per job on stdout — the identical
    // DTO (same adapter, same serializer) the HTTP frontend answers with
    // for the same job, ids assigned in submission order like the server.
    if s.json {
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
    if let Some(out_dir) = &s.out {
        std::fs::create_dir_all(out_dir)
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", out_dir.display())));
        for (path, result) in files.iter().zip(&batch.results) {
            let name = path.file_name().expect("qasm file name");
            let out_path = out_dir.join(name);
            std::fs::write(&out_path, popqc::ir::qasm::to_qasm(&result.circuit))
                .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", out_path.display())));
        }
        if !s.quiet {
            eprintln!(
                "wrote {} optimized circuits to {}",
                batch.results.len(),
                out_dir.display()
            );
        }
    }

    // Optional semantic verification on simulator-sized circuits.
    if s.verify {
        let mut verified = 0;
        let mut skipped = 0;
        for ((label, input), result) in labels.iter().zip(&circuits).zip(&batch.results) {
            if input.num_qubits <= 12 && input.len() <= 60_000 {
                if !popqc::sim::circuits_equivalent(input, &result.circuit, 2, 0xC1C1) {
                    fail(format!("{label}: optimized circuit is NOT equivalent"));
                }
                verified += 1;
            } else {
                skipped += 1;
            }
        }
        if !s.quiet {
            eprintln!("verify: {verified} equivalence-checked, {skipped} too large (skipped)");
        }
    }

    let report = service_report(passes, &svc.stats(), svc.workers(), svc.threads_per_job());
    if let Some(report_path) = &s.report {
        let text = serde_json::to_string_pretty(&report.to_json()).expect("serialize report");
        std::fs::write(report_path, text)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", report_path.display())));
        if !s.quiet {
            eprintln!("report written to {}", report_path.display());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(text: &str) -> Result<(&'static Command, Settings), CliError> {
        let args: Vec<String> = text.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    /// The shortest command line `cmd` accepts, then `extra`.
    fn minimal(cmd: &Command, extra: &str) -> String {
        let mut line = cmd.name.to_string() + if cmd.operand.is_empty() { "" } else { " x" };
        for (flag, _) in cmd.required {
            line += &format!(" {flag} 1");
        }
        line + " " + extra
    }

    /// Parses `text`, which must give every flag its subcommand accepts.
    fn parse_every_flag(text: &str) -> Settings {
        let (cmd, settings) = parse_line(text).unwrap();
        let given: Vec<&str> = text.split_whitespace().collect();
        assert!(cmd.flags().all(|(flag, _)| given.contains(&flag)), "{text}");
        settings
    }

    const SERVICE_FLAGS: &str = "--omega 7 --oracle structural --workers 3 --threads-per-job 2 \
        --cache-capacity 11 --seg-cache-capacity 12 --cache-dir d --cache-addr c:2";

    fn assert_service_flags_landed(s: &Settings) {
        let c = &s.service;
        assert_eq!((s.omega, s.oracle.as_deref()), (7, Some("structural")));
        assert_eq!((c.workers, c.threads_per_job), (3, 2));
        assert_eq!((c.cache_capacity, c.seg_cache_capacity), (11, 12));
        assert_eq!(s.cache_dir, Some("d".into()));
        assert_eq!(s.cache_addr.as_deref(), Some("c:2"));
    }

    #[test]
    fn every_value_flag_needs_its_value_and_every_number_must_parse() {
        for cmd in COMMANDS {
            assert!(parse_line(&minimal(cmd, "")).is_ok(), "popqc {}", cmd.name);
            for (flag, value) in cmd.flags().filter(|(_, value)| !value.is_empty()) {
                let missing = parse_line(&minimal(cmd, flag)).err();
                assert_eq!(missing, Some(CliError::Usage), "{} {flag}", cmd.name);
                if ["N", "MS", "S", "REQS_PER_SEC"].contains(&value) {
                    let refusal = CliError::Fail(format!("cannot parse {flag} value `x`"));
                    let bad = parse_line(&minimal(cmd, &format!("{flag} x"))).err();
                    assert_eq!(bad, Some(refusal), "{} {flag}", cmd.name);
                }
            }
        }
    }

    #[test]
    fn shapes_no_table_accepts_are_usage_errors() {
        let lines = "|cache|serve --frontend evented|serve extra|optimize a --chrome|optimize \
            --omega 9|optimize a --omega 0|serve --conn-threads 0|trace|trace a b|oracles extra\
            |serve --cache-tier tiered";
        for text in lines.split('|') {
            assert_eq!(parse_line(text).err(), Some(CliError::Usage), "{text}");
        }
    }

    #[test]
    fn every_optimize_serve_and_cached_flag_lands_in_its_setting() {
        let o = parse_every_flag(&format!(
            "optimize a b {SERVICE_FLAGS} --out o --repeat 4 --report r --json --verify \
             --quiet --log-level debug"
        ));
        assert_service_flags_landed(&o);
        assert_eq!((o.operands, o.repeat), (vec!["a".into(), "b".into()], 4));
        assert_eq!((o.out, o.report), (Some("o".into()), Some("r".into())));
        assert!(o.json && o.verify && o.quiet && o.log_level.as_deref() == Some("debug"));

        let s = parse_every_flag(&format!(
            "serve --addr h:1 {SERVICE_FLAGS} --conn-threads 5 --max-conns 6 --rate-limit 2.5 \
             --shed-queue-depth 8 --trace-capacity 9 --trace-slow-ms 10 --log-level debug"
        ));
        assert_service_flags_landed(&s);
        assert_eq!((s.net.loop_threads, s.net.max_conns), (5, 6));
        assert_eq!((s.net.rate_limit, s.net.shed_queue_depth), (2.5, 8));
        assert_eq!((s.trace_capacity, s.trace_slow_ms), (9, 10));
        assert_eq!(s.addr.as_deref(), Some("h:1"));
        assert_eq!(s.log_level.as_deref(), Some("debug"));

        let c = parse_every_flag(
            "cached --cache-dir d --addr h:1 --cache-capacity 11 --max-conns 6 --log-level debug",
        );
        assert_eq!(
            (c.addr.as_deref(), c.log_level.as_deref()),
            (Some("h:1"), Some("debug"))
        );
        assert_eq!(c.cache_dir, Some("d".into()));
        assert_eq!(
            (c.service.cache_capacity, c.cache_server.max_conns),
            (11, 6)
        );
    }

    #[test]
    fn absent_flags_keep_their_defaults() {
        let (_, s) = parse_line("serve").unwrap();
        // No `--oracle` keeps the registry's own default.
        assert_eq!((s.omega, s.oracle), (200, None));
        assert_eq!(s.service.seg_cache_capacity, 4096);
    }

    #[test]
    fn a_missing_required_flag_or_a_zero_connection_cap_fails() {
        let required = CliError::Fail("--cache-dir is required".into());
        assert_eq!(parse_line("cached").err(), Some(required));
        for text in ["serve --max-conns 0", "cached --cache-dir d --max-conns 0"] {
            let refusal = CliError::Fail("--max-conns must be at least 1".into());
            assert_eq!(parse_line(text).err(), Some(refusal), "{text}");
        }
    }

    #[test]
    fn the_readme_names_every_flag() {
        let readme = include_str!("../../README.md");
        let in_word = |c: char| c.is_alphanumeric() || c == '-';
        let words: Vec<&str> = readme.split(|c| !in_word(c)).collect();
        for cmd in COMMANDS {
            for (flag, _) in cmd.flags() {
                let named = words.contains(&flag);
                assert!(named, "README never mentions `popqc {} {flag}`", cmd.name);
            }
        }
    }
}
