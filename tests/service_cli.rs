//! End-to-end test of the `popqc` CLI: generate a directory of QASM
//! benchmarks, batch-optimize it twice in one process, and check the
//! acceptance properties — outputs re-parse and are semantically
//! equivalent, and the warm pass is pure cache hits with zero new oracle
//! calls (via the report's counters).

use popqc::prelude::Family;
use std::path::Path;
use std::process::Command;

fn popqc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_popqc")
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(popqc_bin())
        .args(args)
        .output()
        .expect("spawn popqc CLI")
}

fn assert_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn cli_round_trips_a_directory_with_warm_cache_second_pass() {
    let tmp = std::env::temp_dir().join(format!("popqc-cli-test-{}", std::process::id()));
    let in_dir = tmp.join("in");
    let out_dir = tmp.join("out");
    std::fs::create_dir_all(&in_dir).unwrap();
    let _cleanup = Cleanup(&tmp);

    // A small multi-family batch via `popqc gen`.
    for (family, qubits) in [
        ("vqe", "8"),
        ("grover", "6"),
        ("statevec", "5"),
        ("hhl", "6"),
    ] {
        let out = run(&[
            "gen",
            "--family",
            family,
            "--qubits",
            qubits,
            "--seed",
            "9",
            "--out",
            in_dir.to_str().unwrap(),
        ]);
        assert_success(&out, &format!("gen {family}"));
    }
    let inputs: Vec<_> = std::fs::read_dir(&in_dir).unwrap().collect();
    assert_eq!(inputs.len(), 4);

    // Batch-optimize the directory twice in one process, with verification.
    let report_path = tmp.join("report.json");
    let out = run(&[
        "optimize",
        in_dir.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--omega",
        "80",
        "--workers",
        "2",
        "--threads-per-job",
        "1",
        "--repeat",
        "2",
        "--verify",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_success(&out, "optimize");

    // Every output re-parses, is smaller, and is equivalent to its input.
    let mut checked = 0;
    for entry in std::fs::read_dir(&in_dir).unwrap() {
        let in_path = entry.unwrap().path();
        let out_path = out_dir.join(in_path.file_name().unwrap());
        let original = popqc::ir::qasm::parse(&std::fs::read_to_string(&in_path).unwrap()).unwrap();
        let optimized = popqc::ir::qasm::parse(&std::fs::read_to_string(&out_path).unwrap())
            .unwrap_or_else(|e| panic!("optimized {} does not re-parse: {e}", out_path.display()));
        assert!(optimized.validate().is_ok());
        assert!(
            optimized.len() <= original.len(),
            "{}: output larger than input",
            out_path.display()
        );
        assert!(
            popqc::sim::circuits_equivalent(&original, &optimized, 2, 0xFACE),
            "{}: semantics changed",
            out_path.display()
        );
        checked += 1;
    }
    assert_eq!(checked, 4);

    // The report's counters prove the warm-cache property.
    let report = serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap())
        .expect("report parses as JSON");
    let passes = report.get("passes").unwrap().as_array().unwrap();
    assert_eq!(passes.len(), 2);
    let cold = &passes[0];
    let warm = &passes[1];
    assert_eq!(cold.get("cache_hits").unwrap().as_u64(), Some(0));
    assert!(cold.get("oracle_calls_issued").unwrap().as_u64().unwrap() > 0);
    assert_eq!(warm.get("cache_hits").unwrap().as_u64(), Some(4));
    assert_eq!(
        warm.get("oracle_calls_issued").unwrap().as_u64(),
        Some(0),
        "warm pass must issue zero oracle calls"
    );
    // Warm jobs are flagged individually too.
    for job in warm.get("jobs").unwrap().as_array().unwrap() {
        assert_eq!(job.get("cache_hit").unwrap().as_bool(), Some(true));
    }
    let service = report.get("service").unwrap();
    assert_eq!(service.get("cache_hits").unwrap().as_u64(), Some(4));
    assert_eq!(service.get("submitted").unwrap().as_u64(), Some(8));
    // The executor block surfaces the pool's counters end to end; there
    // is no grain setting, and the v1 field says so.
    let executor = service.get("executor").expect("executor block in report");
    assert_eq!(executor.get("grain").unwrap().as_u64(), Some(0));
}

#[test]
fn cli_families_lists_every_family() {
    let out = run(&["families"]);
    assert_success(&out, "families");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout.lines().collect();
    // The paper's eight plus the skewed executor workload.
    assert_eq!(listed.len(), Family::ALL.len());
    assert!(listed.contains(&"vqe") && listed.contains(&"shor") && listed.contains(&"skewed"));
}

#[test]
fn cli_rejects_bad_input_cleanly() {
    let out = run(&["gen", "--family", "sqrt", "--qubits", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least"), "got: {stderr}");

    let out = run(&["optimize", "/nonexistent-popqc-path"]);
    assert!(!out.status.success());
}

#[test]
fn cli_fails_cleanly_on_unparseable_qasm() {
    let tmp = std::env::temp_dir().join(format!("popqc-badqasm-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);

    // One good file and several malformed ones — including the inverted
    // qreg brackets that used to panic the parser with a slice error —
    // must each produce exit code 1 and a diagnostic naming the file,
    // never a panic mid-batch.
    let good = tmp.join("good.qasm");
    std::fs::write(&good, "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n").unwrap();
    for (name, contents) in [
        (
            "inverted-brackets.qasm",
            "OPENQASM 2.0;\nqreg q]0[;\nh q[0];\n",
        ),
        ("unknown-gate.qasm", "OPENQASM 2.0;\nqreg q[2];\nt q[0];\n"),
        ("not-qasm-at-all.qasm", "definitely not a circuit\n"),
    ] {
        let bad = tmp.join(name);
        std::fs::write(&bad, contents).unwrap();
        let out = run(&[
            "optimize",
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
            "--omega",
            "32",
        ]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("popqc: error") && stderr.contains(name),
            "{name}: diagnostic must name the file, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: CLI must not panic, got: {stderr}"
        );
        std::fs::remove_file(&bad).unwrap();
    }
}

#[test]
fn cli_serve_answers_health_and_optimize_over_loopback() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(popqc_bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--threads-per-job",
            "1",
            "--omega",
            "64",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn popqc serve");
    let _cleanup = KillOnDrop(&mut child);

    // The CLI announces the resolved ephemeral port on stderr.
    let stderr = _cleanup.0.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let send = |target: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect to serve");
        write!(
            s,
            "{} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            if body.is_empty() { "GET" } else { "POST" },
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply
    };

    let health = send("/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "got: {health}");

    // Each optimize is followed by a scrape: the identical repeat must
    // show a cache hit that issued no oracle call.
    let scrape = || {
        let reply = send("/v1/metrics", "");
        assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
        reply
            .split_once("\r\n\r\n")
            .expect("header/body split")
            .1
            .to_string()
    };
    let sample = |scrape: &str, series: &str| -> f64 {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {series} in:\n{scrape}"))
    };
    let qasm = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n";
    let reply = send("/v1/optimize", qasm);
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    assert!(reply.contains("\"cache_hit\":false"), "got: {reply}");
    let cold = scrape();
    let reply = send("/v1/optimize", qasm);
    assert!(reply.contains("\"cache_hit\":true"), "got: {reply}");
    let warm = scrape();

    // The series the README's inventory promises, on the release binary.
    for series in [
        "popqc_oracle_call_duration_seconds_bucket",
        "popqc_cache_hits_total",
        "popqc_cache_misses_total",
        "popqc_exec_steals_total",
        "popqc_http_requests_total",
        "popqc_http_request_duration_seconds_bucket",
        "popqc_net_connections_open",
        "popqc_net_shed_total",
        "popqc_rounds_to_fixpoint_count",
        "popqc_store_entries",
    ] {
        assert!(
            warm.lines().any(|l| l.starts_with(series)),
            "missing series {series} in:\n{warm}"
        );
    }
    let calls = r#"popqc_oracle_call_duration_seconds_count{oracle="rule_based"}"#;
    assert!(
        sample(&cold, calls) > 0.0,
        "the cold POST timed no oracle call"
    );
    assert_eq!(
        sample(&warm, calls),
        sample(&cold, calls),
        "the cache hit re-ran the oracle"
    );
    let hits = r#"popqc_cache_hits_total{oracle="rule_based"}"#;
    assert!(
        sample(&warm, hits) >= 1.0,
        "the hit counter did not advance"
    );
}

/// Kills the `popqc serve` child on drop, including on panic.
struct KillOnDrop<'a>(&'a mut std::process::Child);

impl Drop for KillOnDrop<'_> {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Removes the temp tree on drop, including on panic.
struct Cleanup<'a>(&'a Path);

impl Drop for Cleanup<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

#[test]
fn cli_oracles_lists_the_builtin_registry_with_default() {
    let out = run(&["oracles"]);
    assert_success(&out, "oracles");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["rule_based", "rule_single_pass", "structural"] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
    assert!(!stdout.contains("search"), "search is not served: {stdout}");
    assert!(
        stdout.contains("rule_based (default)"),
        "default not marked: {stdout}"
    );
}

#[test]
fn cli_json_emits_v1_job_status_documents() {
    let tmp = std::env::temp_dir().join(format!("popqc-json-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);

    let a = tmp.join("a.qasm");
    let b = tmp.join("b.qasm");
    std::fs::write(
        &a,
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n",
    )
    .unwrap();
    std::fs::write(&b, "OPENQASM 2.0;\nqreg q[3];\nx q[2];\nx q[2];\nh q[1];\n").unwrap();

    let out = run(&[
        "optimize",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--omega",
        "32",
        "--oracle",
        "rule_based",
        "--json",
        "--quiet",
    ]);
    assert_success(&out, "optimize --json");

    // One JobStatus document per job, parseable by the shared DTO layer,
    // ids in submission order like the HTTP frontend assigns them.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<qapi::JobStatus> = stdout
        .lines()
        .map(|line| {
            let v = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line is not JSON: {e}\n{line}"));
            qapi::JobStatus::from_json(&v)
                .unwrap_or_else(|e| panic!("line is not a v1 JobStatus: {e}\n{line}"))
        })
        .collect();
    assert_eq!(docs.len(), 2);
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(doc.job_id, i as u64 + 1);
        assert!(doc.done);
        let report = doc.result.as_ref().expect("completed job");
        assert_eq!(report.oracle, "rule_based");
        assert_eq!(report.omega, 32);
        assert!(report.qasm.is_some(), "job document carries the circuit");
    }
    assert_eq!(docs[0].label.as_deref(), Some("a.qasm"));
    assert_eq!(docs[1].label.as_deref(), Some("b.qasm"));
}

#[test]
fn cli_rejects_unknown_oracle_with_available_list() {
    let tmp = std::env::temp_dir().join(format!("popqc-badoracle-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);
    let a = tmp.join("a.qasm");
    std::fs::write(&a, "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n").unwrap();

    let out = run(&["optimize", a.to_str().unwrap(), "--oracle", "nope"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown oracle") && stderr.contains("rule_based"),
        "diagnostic must list available oracles: {stderr}"
    );
}

/// `serve` has one frontend, so the flag that picked between two is gone:
/// naming a frontend is a usage error (exit 2), not an ignored option.
#[test]
fn cli_serve_rejects_the_frontend_flag_as_usage_error() {
    for frontend in ["threads", "evented"] {
        // The zero connection cap makes a `serve` that still accepted the
        // flag exit 1 instead of serving, so this test fails rather than
        // hangs.
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--frontend",
            frontend,
            "--max-conns",
            "0",
        ];
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: expected exit 2, got {:?}",
            out.status
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}: must print the usage text"
        );
    }
}

// ---------------------------------------------------------------------------
// Result-store persistence (`--cache-dir` / `--cache-addr` / `popqc cache`)
// ---------------------------------------------------------------------------

/// The store is composed from `--cache-capacity`, `--cache-dir` and
/// `--cache-addr` alone: naming a tier is a usage error (exit 2) on every
/// subcommand that builds a store, and both back flags at once is the one
/// refusal (exit 1, with a diagnostic).
#[test]
fn cli_cache_tier_is_a_usage_error_and_two_backs_are_refused() {
    let tmp = std::env::temp_dir().join(format!("popqc-badtier-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);
    let a = tmp.join("a.qasm");
    std::fs::write(&a, "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n").unwrap();
    let cache = tmp.join("cache");
    let (a, cache) = (a.to_str().unwrap(), cache.to_str().unwrap());

    // `--max-conns 0` makes a server that still accepted the flag exit 1
    // instead of serving, so this test fails rather than hangs.
    for args in [
        vec!["optimize", a, "--cache-tier", "tiered"],
        vec![
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-conns",
            "0",
            "--cache-tier",
            "tiered",
        ],
        vec![
            "cached",
            "--cache-dir",
            cache,
            "--max-conns",
            "0",
            "--cache-tier",
            "disk",
        ],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: got {:?}", out.status);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}: must print the usage text"
        );
    }

    let out = run(&[
        "optimize",
        a,
        "--cache-dir",
        cache,
        "--cache-addr",
        "127.0.0.1:1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exactly one back tier"),
        "must refuse a disk and a remote back at once"
    );
}

/// `--log-level` refuses a bad value the way every flag value is refused:
/// an unknown level exits 1 and the diagnostic names both the bad value
/// and the valid set, on every subcommand that accepts the flag.
#[test]
fn cli_unknown_log_level_exits_1_with_diagnostic() {
    let tmp = std::env::temp_dir().join(format!("popqc-badlog-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);
    let a = tmp.join("a.qasm");
    std::fs::write(&a, "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n").unwrap();

    for subcommand in [
        vec!["optimize", a.to_str().unwrap(), "--log-level", "loud"],
        vec!["serve", "--addr", "127.0.0.1:0", "--log-level", "loud"],
    ] {
        let out = run(&subcommand);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{subcommand:?}: expected exit 1, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown log level `loud`")
                && stderr.contains("error, warn, info, debug"),
            "{subcommand:?}: diagnostic must name the level and the valid set, got: {stderr}"
        );
    }

    // A bad per-target spec is refused the same way (the filter grammar
    // is validated as a whole, not just a bare level).
    let out = run(&[
        "optimize",
        a.to_str().unwrap(),
        "--log-level",
        "info,qexec=blaring",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown log level `blaring`"),
        "per-target specs must be validated too"
    );
}

#[test]
fn cli_cache_dir_persists_across_two_processes() {
    let tmp = std::env::temp_dir().join(format!("popqc-persist-test-{}", std::process::id()));
    let in_dir = tmp.join("in");
    let cache_dir = tmp.join("cache");
    std::fs::create_dir_all(&in_dir).unwrap();
    let _cleanup = Cleanup(&tmp);

    for (family, qubits) in [("vqe", "8"), ("grover", "6")] {
        let out = run(&[
            "gen",
            "--family",
            family,
            "--qubits",
            qubits,
            "--seed",
            "3",
            "--out",
            in_dir.to_str().unwrap(),
        ]);
        assert_success(&out, &format!("gen {family}"));
    }

    let optimize = |report: &std::path::Path| {
        let out = run(&[
            "optimize",
            in_dir.to_str().unwrap(),
            "--omega",
            "64",
            "--workers",
            "2",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--quiet",
        ]);
        assert_success(&out, "optimize with cache dir");
        serde_json::from_str(&std::fs::read_to_string(report).unwrap()).expect("report JSON")
    };

    // Process one: cold. Process two: an entirely new process over the
    // same directory must be all hits with zero oracle calls.
    let cold = optimize(&tmp.join("cold.json"));
    let cold_pass = &cold.get("passes").unwrap().as_array().unwrap()[0];
    assert_eq!(cold_pass.get("cache_hits").unwrap().as_u64(), Some(0));
    assert!(
        cold_pass
            .get("oracle_calls_issued")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    let warm = optimize(&tmp.join("warm.json"));
    let warm_pass = &warm.get("passes").unwrap().as_array().unwrap()[0];
    assert_eq!(warm_pass.get("cache_hits").unwrap().as_u64(), Some(2));
    assert_eq!(
        warm_pass.get("oracle_calls_issued").unwrap().as_u64(),
        Some(0),
        "second process must answer entirely from the disk tier"
    );
    let service = warm.get("service").unwrap();
    assert_eq!(
        service.get("cache_backend").unwrap().as_str(),
        Some("tiered")
    );
    assert_eq!(
        service.get("oracle_calls_issued").unwrap().as_u64(),
        Some(0)
    );
}

#[test]
fn cli_cache_warm_stats_clear_cycle() {
    let tmp = std::env::temp_dir().join(format!("popqc-cachecmd-test-{}", std::process::id()));
    let in_dir = tmp.join("in");
    let cache_dir = tmp.join("cache");
    std::fs::create_dir_all(&in_dir).unwrap();
    let _cleanup = Cleanup(&tmp);

    for (family, qubits) in [("vqe", "8"), ("statevec", "5")] {
        let out = run(&[
            "gen",
            "--family",
            family,
            "--qubits",
            qubits,
            "--seed",
            "5",
            "--out",
            in_dir.to_str().unwrap(),
        ]);
        assert_success(&out, &format!("gen {family}"));
    }

    // warm: pre-populates the disk tier and prints a CacheReport.
    let out = run(&[
        "cache",
        "warm",
        in_dir.to_str().unwrap(),
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "--omega",
        "64",
    ]);
    assert_success(&out, "cache warm");
    let report = qapi::CacheReport::from_json(
        &serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("warm JSON"),
    )
    .expect("warm CacheReport");
    assert_eq!(report.backend, "disk");
    assert_eq!(report.entries, 2);

    // A warmed directory serves an `optimize` run with zero oracle calls.
    let report_path = tmp.join("report.json");
    let out = run(&[
        "optimize",
        in_dir.to_str().unwrap(),
        "--omega",
        "64",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_success(&out, "optimize over warmed cache");
    let report_doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let pass = &report_doc.get("passes").unwrap().as_array().unwrap()[0];
    assert_eq!(pass.get("oracle_calls_issued").unwrap().as_u64(), Some(0));
    assert_eq!(pass.get("cache_hits").unwrap().as_u64(), Some(2));

    // stats: sees the persisted entries from a fresh process.
    let out = run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()]);
    assert_success(&out, "cache stats");
    let stats = qapi::CacheReport::from_json(
        &serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("stats JSON"),
    )
    .expect("stats CacheReport");
    assert_eq!(stats.entries, 2);
    assert!(stats.bytes > 0);

    // clear: removes them and reports the count.
    let out = run(&["cache", "clear", "--cache-dir", cache_dir.to_str().unwrap()]);
    assert_success(&out, "cache clear");
    let cleared = qapi::CacheClearResponse::from_json(
        &serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("clear JSON"),
    )
    .expect("CacheClearResponse");
    assert!(cleared.cleared);
    assert_eq!(cleared.entries_removed, 2);

    let out = run(&["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()]);
    assert_success(&out, "cache stats after clear");
    let stats = qapi::CacheReport::from_json(
        &serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap(),
    )
    .unwrap();
    assert_eq!(stats.entries, 0);

    // A missing directory is a diagnostic, not a panic.
    let out = run(&[
        "cache",
        "stats",
        "--cache-dir",
        tmp.join("nope").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not exist"));
}

/// The PR's acceptance property, end to end over real processes: a
/// `popqc serve --cache-dir …` process is killed and
/// restarted, and the repeated POST answers from the disk tier with
/// `cache_hit == true` and zero new oracle calls.
#[test]
fn cli_serve_killed_and_restarted_answers_from_the_disk_tier() {
    use std::io::{BufRead, BufReader, Read, Write};

    let tmp = std::env::temp_dir().join(format!("popqc-serverestart-test-{}", std::process::id()));
    let cache_dir = tmp.join("cache");
    std::fs::create_dir_all(&tmp).unwrap();
    let _cleanup = Cleanup(&tmp);

    let spawn_serve = || {
        let mut child = Command::new(popqc_bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--threads-per-job",
                "1",
                "--omega",
                "64",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn popqc serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before announcing its address")
                .unwrap();
            if let Some(rest) = line.split("http://").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        (child, addr)
    };

    let send = |addr: &str, method: &str, target: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(addr).expect("connect to serve");
        write!(
            s,
            "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply
    };

    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[0];\ncx q[0],q[1];\nx q[2];\nx q[2];\n";

    // Process one: compute and persist, then die.
    {
        let (mut child, addr) = spawn_serve();
        let _guard = KillOnDrop(&mut child);
        let reply = send(&addr, "POST", "/v1/optimize", qasm);
        assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
        assert!(reply.contains("\"cache_hit\":false"), "got: {reply}");
        // KillOnDrop kills the process here — an abrupt death, no
        // graceful shutdown path.
    }

    // Process two over the same directory: the identical POST is a hit
    // served from the disk tier, with zero oracle calls ever issued by
    // this process.
    let (mut child, addr) = spawn_serve();
    let _guard = KillOnDrop(&mut child);
    let reply = send(&addr, "POST", "/v1/optimize", qasm);
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    assert!(
        reply.contains("\"cache_hit\":true"),
        "restarted server must answer from disk: {reply}"
    );
    let stats = send(&addr, "GET", "/v1/stats", "");
    assert!(
        stats.contains("\"oracle_calls_issued\":0"),
        "restart must not recompute: {stats}"
    );
    assert!(
        stats.contains("\"cache_backend\":\"tiered\""),
        "got: {stats}"
    );
    let cache = send(&addr, "GET", "/v1/cache", "");
    assert!(
        cache.contains("\"tier\":\"disk\""),
        "per-tier report must include the disk tier: {cache}"
    );
}

/// The remote-tier acceptance property, end to end over real processes:
/// a `popqc cached` server plus two remote-only `popqc serve` replicas
/// (`--cache-addr` with `--cache-capacity 0`). A circuit optimized on replica A is a `cache_hit: true`
/// answer on replica B with zero oracle calls ever issued by B; killing
/// the cache server degrades both replicas to local misses (still 200,
/// never an error).
#[test]
fn cli_replica_fleet_shares_one_cache_server_and_survives_its_death() {
    use std::io::{BufRead, BufReader, Read, Write};

    let tmp = std::env::temp_dir().join(format!("popqc-fleet-test-{}", std::process::id()));
    let cache_dir = tmp.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let _cleanup = Cleanup(&tmp);

    // Announced-address reader shared by both process kinds: `cached`
    // logs `addr=HOST:PORT`, `serve` logs `addr=http://HOST:PORT`.
    let read_addr = |child: &mut std::process::Child, what: &str| {
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        loop {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("{what} exited before announcing its address"))
                .unwrap();
            if let Some(rest) = line.split("addr=").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .trim_start_matches("http://")
                    .to_string();
            }
        }
    };

    let mut cached = Command::new(popqc_bin())
        .args([
            "cached",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn popqc cached");
    let cache_addr = read_addr(&mut cached, "cached");
    let cached_guard = KillOnDrop(&mut cached);

    let spawn_replica = || {
        let mut child = Command::new(popqc_bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--threads-per-job",
                "1",
                "--omega",
                "64",
                "--cache-addr",
                &cache_addr,
                "--cache-capacity",
                "0",
            ])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn popqc serve replica");
        let addr = read_addr(&mut child, "serve");
        (child, addr)
    };

    let send = |addr: &str, method: &str, target: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(addr).expect("connect to serve");
        write!(
            s,
            "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply
    };

    let (mut a, addr_a) = spawn_replica();
    let _guard_a = KillOnDrop(&mut a);
    let (mut b, addr_b) = spawn_replica();
    let _guard_b = KillOnDrop(&mut b);

    // Replica A computes; the result write-throughs to the cache server.
    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[0];\ncx q[0],q[1];\nx q[2];\nx q[2];\n";
    let reply = send(&addr_a, "POST", "/v1/optimize", qasm);
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    assert!(reply.contains("\"cache_hit\":false"), "got: {reply}");

    // Replica B — a different OS process — answers the identical POST
    // from the shared cache with zero oracle calls of its own.
    let reply = send(&addr_b, "POST", "/v1/optimize", qasm);
    assert!(reply.starts_with("HTTP/1.1 200"), "got: {reply}");
    assert!(
        reply.contains("\"cache_hit\":true"),
        "replica B must hit the shared cache: {reply}"
    );
    let stats = send(&addr_b, "GET", "/v1/stats", "");
    assert!(
        stats.contains("\"oracle_calls_issued\":0"),
        "B must never call an oracle: {stats}"
    );
    assert!(
        stats.contains("\"tier\":\"remote\""),
        "B's tier report names the remote tier: {stats}"
    );

    // Kill the cache server mid-run: replicas must keep answering 200
    // (local misses that recompute), never surface the dead server.
    let _ = cached_guard.0.kill();
    let _ = cached_guard.0.wait();
    let fresh = "OPENQASM 2.0;\nqreg q[2];\nx q[1];\nx q[1];\nh q[0];\n";
    for addr in [&addr_a, &addr_b] {
        let reply = send(addr, "POST", "/v1/optimize", fresh);
        assert!(
            reply.starts_with("HTTP/1.1 200"),
            "replica must degrade gracefully, got: {reply}"
        );
    }
    // The degradation is visible, not silent: the remote tier's error
    // counter is non-zero in the stats report.
    let stats = send(&addr_b, "GET", "/v1/stats", "");
    let errors = stats
        .split("\"errors\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no errors field in stats: {stats}"));
    assert!(errors > 0, "degraded ops must be counted: {stats}");
}
